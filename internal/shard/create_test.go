package shard

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestCreateOptionValidation pins the redesigned writer's contract:
// zero values select defaults, negative or unknown knobs come back as
// *OptionsError naming the field, and the deprecated wrappers remain
// exact aliases.
func TestCreateOptionValidation(t *testing.T) {
	g := gen.TinySocial()

	t.Run("ZeroValuesSelectDefaults", func(t *testing.T) {
		st, err := Create(t.TempDir(), g, WriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.NumShards() != DefaultPartitions {
			t.Fatalf("zero Partitions built %d shards, want DefaultPartitions=%d", st.NumShards(), DefaultPartitions)
		}
		if st.Format() != DefaultFormat {
			t.Fatalf("zero Format built %v, want %v", st.Format(), DefaultFormat)
		}
	})

	t.Run("NegativePartitions", func(t *testing.T) {
		_, err := Create(t.TempDir(), g, WriteOptions{Partitions: -1})
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != "Partitions" {
			t.Fatalf("got %v, want *OptionsError for Partitions", err)
		}
	})

	t.Run("UnknownFormat", func(t *testing.T) {
		_, err := Create(t.TempDir(), g, WriteOptions{Format: Format(99)})
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != "Format" {
			t.Fatalf("got %v, want *OptionsError for Format", err)
		}
	})
}
