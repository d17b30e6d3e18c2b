package shard

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestCreateOptionValidation pins the writer's contract: the zero value
// selects DefaultPartitions and writes a v3 store, and a negative
// partition count comes back as *OptionsError naming the field.
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
		if st.Format() != FormatV3 {
			t.Fatalf("Create wrote a %v store, want v3", st.Format())
		}
	})

	t.Run("NegativePartitions", func(t *testing.T) {
		_, err := Create(t.TempDir(), g, WriteOptions{Partitions: -1})
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != "Partitions" {
			t.Fatalf("got %v, want *OptionsError for Partitions", err)
		}
	})
}
