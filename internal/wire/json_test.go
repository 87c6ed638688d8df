package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBodyNestingLimit: a skipped value nested as deep as encoding/json
// allows parses, and one level deeper is refused, as json.Unmarshal
// refuses it. (FuzzBodies would need two 20 KB seeds to say this.)
func TestBodyNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		doc := []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"video":"v"}`)
		var got, want RefreshResponse
		gotErr, wantErr := got.Parse(doc), json.Unmarshal(doc, &want)
		if (wantErr == nil) != (depth <= maxDepth) {
			t.Fatalf("depth %d: json.Unmarshal says %v", depth, wantErr)
		}
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("depth %d: Parse = %+v, %v; json.Unmarshal = %+v, %v", depth, got, gotErr, want, wantErr)
		}
	}
}

// TestRatingStatusParseAllocatesNothing: a rating reply whose status is
// one of the two known values parses into that constant, so reading it
// copies no text, and the result still equals json.Unmarshal's. Any other
// status is copied as it stands.
func TestRatingStatusParseAllocatesNothing(t *testing.T) {
	for _, doc := range []string{
		`{"chunk":3,"status":"accepted","epoch":7}`,
		`{"chunk":3,"status":"quarantined","epoch":7}`,
		`{"chunk":3,"status":"accept\u0065d","epoch":7}`,
		`{"chunk":3,"status":"Accepted","epoch":7}`,
		`{"chunk":3,"status":"accepted ","epoch":7}`,
	} {
		var got, want RatingResponse
		if err := got.Parse([]byte(doc)); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: json.Unmarshal: %v", doc, err)
		}
		if got != want {
			t.Fatalf("%s: Parse = %+v, json.Unmarshal = %+v", doc, got, want)
		}
		known := got.Status == StatusAccepted || got.Status == StatusQuarantined
		if raceEnabled || !known {
			continue
		}
		data := []byte(doc)
		allocs := testing.AllocsPerRun(100, func() {
			var m RatingResponse
			if err := m.Parse(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Parse allocates %.1f objects, want 0", doc, allocs)
		}
	}
}
