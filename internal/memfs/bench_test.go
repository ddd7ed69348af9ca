package memfs

import (
	"path"
	"testing"
)

// BenchmarkReadFileAppend measures one pseudo-file read at the depth of a
// vCPU cgroup's cpu.stat, with a fault hook armed as the simulated host
// arms one. hit reads the clean path, which the index resolves; miss
// reads an unclean spelling of a sibling, which is never indexed and so
// is cleaned and walked on every read.
func BenchmarkReadFileAppend(b *testing.B) {
	const dir = "/sys/fs/cgroup/machine.slice/machine-qemu-vm07.scope/vcpu1"
	fs := New()
	if err := fs.MkdirAll(dir); err != nil {
		b.Fatal(err)
	}
	render := func(buf []byte) []byte { return append(buf, "usage_usec 123456\n"...) }
	for _, name := range []string{"cpu.stat", "cgroup.threads"} {
		if err := fs.AddDynamicAppend(path.Join(dir, name), render, nil); err != nil {
			b.Fatal(err)
		}
	}
	fs.SetFaultHook(func(op, p string) error { return nil })
	for _, bc := range []struct{ name, p string }{
		{"hit", dir + "/cpu.stat"},
		{"miss", dir + "//cgroup.threads"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = fs.ReadFileAppend(bc.p, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
