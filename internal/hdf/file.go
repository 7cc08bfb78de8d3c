package hdf

import (
	"io"

	"genxio/internal/rt"
)

// PublishFile atomically replaces name with blob: staged at name+TmpSuffix,
// written, closed, and renamed into place, so a crash at any point leaves
// either the old file or the new one — the way every small snapshot
// artifact (catalog blob, manifest, repaired copy) reaches the filesystem.
func PublishFile(fsys rt.FS, name string, blob []byte) error {
	tmp := name + TmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if len(blob) > 0 {
		if _, err := f.WriteAt(blob, 0); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, name)
}

// ReadFile returns the whole of the named file: open, size, one read.
func ReadFile(fsys rt.FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, err
	}
	return buf, nil
}
