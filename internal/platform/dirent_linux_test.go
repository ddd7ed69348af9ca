//go:build linux

package platform

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// appendDirent appends one linux_dirent64 record, padded to 8 bytes.
func appendDirent(buf []byte, ino uint64, typ uint8, name string) []byte {
	reclen := (direntNameOff + len(name) + 1 + 7) &^ 7
	rec := make([]byte, reclen)
	binary.NativeEndian.PutUint64(rec, ino)
	binary.NativeEndian.PutUint64(rec[8:], uint64(len(buf)+reclen)) // d_off
	binary.NativeEndian.PutUint16(rec[direntReclenOff:], uint16(reclen))
	rec[direntTypeOff] = typ
	copy(rec[direntNameOff:], name)
	return append(buf, rec...)
}

// TestParseDirents walks a synthesized getdents buffer: dot entries and
// zero-inode records are skipped, types come from d_type, and DT_UNKNOWN
// records are typed by lstat — a vanished one is dropped, as os.ReadDir
// drops it.
func TestParseDirents(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("sub", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = appendDirent(buf, 1, syscall.DT_DIR, ".")
	buf = appendDirent(buf, 2, syscall.DT_DIR, "..")
	buf = appendDirent(buf, 10, syscall.DT_DIR, "machine-qemu-a.scope")
	buf = appendDirent(buf, 0, syscall.DT_DIR, "deleted")
	buf = appendDirent(buf, 11, syscall.DT_REG, "b.scope")
	buf = appendDirent(buf, 12, syscall.DT_UNKNOWN, "sub")
	buf = appendDirent(buf, 13, syscall.DT_UNKNOWN, "file")
	buf = appendDirent(buf, 14, syscall.DT_UNKNOWN, "link") // a symlink to a directory is not one
	buf = appendDirent(buf, 15, syscall.DT_UNKNOWN, "vanished")
	buf = appendDirent(buf, 16, syscall.DT_DIR, "a-name-long-enough-to-need-more-than-one-padding-word")

	got, err := parseDirents(buf, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		ino  uint64
		dir  bool
	}{
		{"machine-qemu-a.scope", 10, true},
		{"b.scope", 11, false},
		{"sub", 12, true},
		{"file", 13, false},
		{"link", 14, false},
		{"a-name-long-enough-to-need-more-than-one-padding-word", 16, true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if string(got[i].name) != w.name || got[i].ino != w.ino || got[i].dir != w.dir {
			t.Errorf("entry %d = {%q %d %v}, want %+v", i, got[i].name, got[i].ino, got[i].dir, w)
		}
	}

	// A truncated or zero-length record is malformed, not an endless loop.
	for _, bad := range [][]byte{buf[:direntNameOff-1], buf[:len(buf)-1]} {
		if _, err := parseDirents(bad, dir, nil); err == nil {
			t.Errorf("%d-byte truncated buffer parsed without error", len(bad))
		}
	}
	zero := appendDirent(nil, 1, syscall.DT_DIR, "x")
	binary.NativeEndian.PutUint16(zero[direntReclenOff:], 0)
	if _, err := parseDirents(zero, dir, nil); err == nil {
		t.Error("zero reclen parsed without error")
	}
}

// TestReadDirentsGrowsBuffer: a directory larger than one getdents call
// is read whole, every entry once, through a buffer grown on demand.
func TestReadDirentsGrowsBuffer(t *testing.T) {
	dir := t.TempDir()
	const n = 400 // 56-byte records: several direntReadMin reads
	for i := 0; i < n; i++ {
		if err := os.Mkdir(filepath.Join(dir, "vcpu"+strconv.Itoa(1000+i)+"-lengthens-the-record"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf []byte
	var ents []dirent
	for pass := 0; pass < 2; pass++ { // the second pass rewinds the kept descriptor
		if buf, ents, err = readDirents(f, buf, ents[:0]); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, e := range ents {
			if !e.dir || seen[string(e.name)] {
				t.Fatalf("pass %d: bad or repeated entry %q", pass, e.name)
			}
			seen[string(e.name)] = true
		}
		if len(seen) != n {
			t.Fatalf("pass %d: read %d entries, want %d", pass, len(seen), n)
		}
	}
}
