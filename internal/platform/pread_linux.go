//go:build linux

package platform

import (
	"os"
	"syscall"
)

// fdOf returns the descriptor preadOnce reads. os.File.Fd switches a
// pollable descriptor (cgroupfs, sysfs) to blocking mode with a fcntl,
// which pread does not care about but which costs a syscall, so handles
// call it once per open, not per read.
func fdOf(f *os.File) int { return int(f.Fd()) }

// preadOnce reads f from offset zero into buf with one pread(2).
// os.File.ReadAt loops until buf is full, so on the short pseudo-files
// the monitor reads it issues a second pread only to see end of file.
func preadOnce(f *os.File, fd int, buf []byte) (int, error) {
	for {
		n, err := syscall.Pread(fd, buf, 0)
		if err == nil {
			return n, nil
		}
		if err != syscall.EINTR {
			return 0, &os.PathError{Op: "read", Path: f.Name(), Err: err}
		}
	}
}
