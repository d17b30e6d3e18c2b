package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// writeManifest marshals m and swaps it in as dir's manifest.json —
// atomic temp+fsync+rename, then a directory sync so the swap itself
// is durable. Every manifest swap in a store's life goes through here:
// creation, each ApplyBatch generation bump, each Compact fold. The
// manifest is always written after the files it names are durable and
// never names a file an older manifest needs under a changed meaning,
// so a crash before, during or after the swap leaves the directory
// opening as exactly one complete generation.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	err = writeFileAtomic(filepath.Join(dir, "manifest.json"), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// writeFileAtomic creates path's content with write, via a fsync'd
// temporary file and an atomic rename — the durability discipline of
// every file in a store: manifest, base shards, delta shards. A reader
// racing the write (or surviving a crash during it) sees either the old
// file or the new one, never a torn prefix — at worst a stale *.tmp,
// which Open ignores; combined with the final directory sync, a
// conversion that dies at any point leaves the directory openable as
// whatever complete store it last had, or failing with a typed
// validation error — never silently corrupt.
func writeFileAtomic(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readFileWith opens path and runs decode over the file and its size,
// returning the size. A close error fails an otherwise successful
// decode, like the write path does: a delayed I/O error surfacing at
// close must not let the decode pass as valid.
func readFileWith(path string, decode func(f *os.File, size int64) error) (size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("shard: %s: close: %v", path, cerr)
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("shard: %s: %v", path, err)
	}
	return fi.Size(), decode(f, fi.Size())
}

// syncDir fsyncs a directory, making the renames inside it durable:
// without it a crash after a "successful" conversion can roll the
// directory entries back to files that no longer exist.
func syncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
