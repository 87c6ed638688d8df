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
