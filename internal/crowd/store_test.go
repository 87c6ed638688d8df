package crowd

import (
	"bytes"
	"strings"
	"testing"
)

func TestWeightLibraryRoundTrip(t *testing.T) {
	lib := &WeightLibrary{Weights: map[string][]float64{
		"Soccer1": {0.8, 1.2, 1.5},
		"Tank":    {1.0, 0.9},
	}}
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeightLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Weights) != 2 || got.Weights["Soccer1"][2] != 1.5 {
		t.Fatalf("library mismatch: %+v", got)
	}
}

func TestReadWeightLibraryRejectsBadEntries(t *testing.T) {
	cases := []string{
		`{"weights": {"x": []}}`,
		`{"weights": {"x": [0]}}`,
		`{"weights": {"x": [11]}}`,
	}
	for i, c := range cases {
		if _, err := ReadWeightLibrary(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

// TestWeightLibraryEpochs pins the versioned-library behavior: Set starts
// entries at epoch 1, bumps refreshed ones, refuses chunk-count changes,
// and the whole ledger round-trips through Save/Read.
func TestWeightLibraryEpochs(t *testing.T) {
	lib := &WeightLibrary{}
	if err := lib.Set("Soccer1", []float64{1, 1.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if e := lib.EpochOf("Soccer1"); e != 1 {
		t.Fatalf("fresh entry at epoch %d", e)
	}
	if e := lib.EpochOf("missing"); e != 0 {
		t.Fatalf("missing entry at epoch %d", e)
	}
	// A re-profile bumps.
	if err := lib.Set("Soccer1", []float64{2, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if e := lib.EpochOf("Soccer1"); e != 2 {
		t.Fatalf("refreshed entry at epoch %d", e)
	}
	// A different cut is refused.
	if err := lib.Set("Soccer1", []float64{1, 1}); err == nil {
		t.Fatal("chunk-count change accepted")
	}
	// Invalid weights are refused.
	if err := lib.Set("Tank", []float64{1, -1}); err == nil {
		t.Fatal("invalid weight accepted")
	}

	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeightLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != WeightLibraryVersion {
		t.Fatalf("round-tripped version %d", got.Version)
	}
	if got.EpochOf("Soccer1") != 2 {
		t.Fatalf("round-tripped epoch %d", got.EpochOf("Soccer1"))
	}
}

// TestWeightLibraryLegacyRead: epoch-less libraries (the old layout) load
// with every entry at epoch 1; corrupt epoch ledgers are rejected.
func TestWeightLibraryLegacyRead(t *testing.T) {
	legacy := `{"weights": {"Soccer1": [1, 1.5, 0.5]}}`
	lib, err := ReadWeightLibrary(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if lib.EpochOf("Soccer1") != 1 {
		t.Fatalf("legacy entry at epoch %d", lib.EpochOf("Soccer1"))
	}

	if _, err := ReadWeightLibrary(strings.NewReader(
		`{"version": 99, "weights": {"Soccer1": [1]}}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadWeightLibrary(strings.NewReader(
		`{"version": 2, "weights": {"Soccer1": [1]}, "epochs": {"Soccer1": 0}}`)); err == nil {
		t.Fatal("epoch-0 entry accepted")
	}
	if _, err := ReadWeightLibrary(strings.NewReader(
		`{"version": 2, "weights": {"Soccer1": [1]}, "epochs": {"Ghost": 3}}`)); err == nil {
		t.Fatal("epoch for missing entry accepted")
	}
}
