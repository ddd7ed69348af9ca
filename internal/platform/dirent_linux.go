//go:build linux

package platform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"slices"
	"syscall"
)

// linux_dirent64 layout: d_ino u64, d_off s64, d_reclen u16, d_type u8,
// then the NUL-terminated name, the record padded to 8 bytes.
const (
	direntReclenOff = 16
	direntTypeOff   = 18
	direntNameOff   = 19
	// direntReadMin is the free space kept ahead of each getdents call:
	// room for several maximal (NAME_MAX) records, so a read never fails
	// with EINVAL for want of space for one.
	direntReadMin = 4096
)

var errBadDirent = errors.New("platform: malformed linux_dirent64 record")

// readDirents rewinds the kept-open directory f, reads every record into
// buf (grown as needed and kept by the caller across calls) and returns
// its entries appended to ents. Names alias buf and stay valid until the
// next read into it. At steady state it allocates nothing: the syscalls
// are lseek plus getdents until it returns zero.
func readDirents(f *os.File, buf []byte, ents []dirent) ([]byte, []dirent, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return buf, ents, err
	}
	fd := int(f.Fd())
	buf = buf[:0]
	for {
		if cap(buf)-len(buf) < direntReadMin {
			buf = slices.Grow(buf, cap(buf)+direntReadMin)
		}
		n, err := syscall.ReadDirent(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return buf, ents, &os.PathError{Op: "readdirent", Path: f.Name(), Err: err}
		}
		if n <= 0 {
			break
		}
		buf = buf[:len(buf)+n]
	}
	ents, err := parseDirents(buf, f.Name(), ents)
	return buf, ents, err
}

// parseDirents appends the entries of the linux_dirent64 records in buf
// to ents in place, without unsafe and without a string per name. Like
// os.ReadDir it skips "." and "..", and records whose inode is zero
// (entries absent from the directory). A record typed DT_UNKNOWN (some
// filesystems do not fill d_type) is typed by an lstat of dir/name, the
// fallback os.ReadDir takes too; an entry that vanished before the lstat
// is skipped.
func parseDirents(buf []byte, dir string, ents []dirent) ([]dirent, error) {
	for len(buf) > 0 {
		if len(buf) < direntNameOff {
			return ents, errBadDirent
		}
		reclen := int(binary.NativeEndian.Uint16(buf[direntReclenOff:]))
		if reclen < direntNameOff || reclen > len(buf) {
			return ents, errBadDirent
		}
		rec := buf[:reclen]
		buf = buf[reclen:]
		ino := binary.NativeEndian.Uint64(rec)
		name := rec[direntNameOff:]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		if ino == 0 || string(name) == "." || string(name) == ".." {
			continue
		}
		isDir := rec[direntTypeOff] == syscall.DT_DIR
		if rec[direntTypeOff] == syscall.DT_UNKNOWN {
			var st syscall.Stat_t
			path := dir + "/" + string(name)
			if err := syscall.Lstat(path, &st); err != nil {
				if err == syscall.ENOENT {
					continue
				}
				return ents, &os.PathError{Op: "lstat", Path: path, Err: err}
			}
			isDir = st.Mode&syscall.S_IFMT == syscall.S_IFDIR
		}
		ents = append(ents, dirent{name: name, ino: ino, dir: isDir})
	}
	return ents, nil
}
