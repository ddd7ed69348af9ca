//go:build !linux

package platform

import (
	"io"
	"os"
)

// readDirents rewinds the kept-open directory f and returns its entries
// appended to ents. Off Linux it goes through os.File.ReadDir and
// allocates; inodes are not reported (ino 0), so ListVMs reopens every
// scope on each call there. buf is returned unused.
func readDirents(f *os.File, buf []byte, ents []dirent) ([]byte, []dirent, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return buf, ents, err
	}
	des, err := f.ReadDir(-1)
	if err != nil {
		return buf, ents, err
	}
	for _, de := range des {
		ents = append(ents, dirent{name: []byte(de.Name()), dir: de.IsDir()})
	}
	return buf, ents, nil
}
