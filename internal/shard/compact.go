package shard

import (
	"fmt"
	"path/filepath"
)

// compactedShardName names the generation-suffixed base file Compact
// writes for shard si. Compaction never reuses a live file name —
// the previous generation's bases stay on disk untouched, so a Store
// opened before the swap keeps reading exactly the files its manifest
// names, and a crash mid-compaction (new bases written, manifest not
// yet swapped) leaves the directory opening as the old generation
// with the orphaned gen-files inert.
func compactedShardName(si int, gen int64) string {
	return fmt.Sprintf("shard-%04d-g%06d.bin", si, gen)
}

// Compact folds every pending delta into fresh generation-suffixed
// base files and swaps in a manifest with no delta layer, bumping the
// generation. Reads through the receiver afterwards touch one file
// per shard again. A store with no pending deltas is left unchanged
// (no generation bump). Returns the generation the store serves on
// return.
//
// Base files are written in FormatV3 only. A v1 or v2 store therefore
// has every base file rewritten, not just the ones with deltas, and
// its manifest magic swung to v3: from then on it is a v3 store.
//
// Like ApplyBatch, Compact must not race reads through the same Store
// value; superseded files are retained, so other Store values opened
// earlier (pinned sessions) stay readable throughout and afterwards.
func (s *Store) Compact() (int64, error) {
	if s.PendingDeltas() == 0 {
		return s.m.Generation, nil
	}
	gen := s.m.Generation + 1
	newM := s.m.clone()
	newM.Magic = FormatV3.manifestMagic()
	if newM.BaseFiles == nil {
		newM.BaseFiles = make([]string, newM.Shards)
		for i := range newM.BaseFiles {
			newM.BaseFiles[i] = filepath.Base(shardPath(s.dir, i))
		}
	}
	for i := 0; i < newM.Shards; i++ {
		if s.format == FormatV3 && len(s.deltas(i)) == 0 {
			continue
		}
		r, _, err := s.loadRuns(i)
		if err != nil {
			return 0, err
		}
		name := compactedShardName(i, gen)
		if err := writeShardFile(filepath.Join(s.dir, name), r); err != nil {
			return 0, err
		}
		newM.BaseFiles[i] = name
		newM.BaseEdgeCounts[i] = int64(len(r.src))
	}
	newM.Deltas = nil
	newM.Generation = gen
	if err := writeManifest(s.dir, newM); err != nil {
		return 0, err
	}
	s.m, s.format = newM, FormatV3
	return gen, nil
}
