//go:build !linux

package platform

import (
	"io"
	"os"
)

// fdOf is unused off Linux, where preadOnce goes through os.File.
func fdOf(*os.File) int { return -1 }

// preadOnce reads f from offset zero into buf. Off Linux it is
// os.File.ReadAt, which may take a second read to see end of file.
func preadOnce(f *os.File, _ int, buf []byte) (int, error) {
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	return n, err
}
