package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestBodyNestingLimit: a skipped value nested as deep as encoding/json
// allows parses, and one level deeper is refused, as json.Unmarshal
// refuses it. (FuzzBodies would need two 20 KB seeds to say this.)
func TestBodyNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		doc := []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"video":"v"}`)
		var got, want RefreshRequest
		gotErr, wantErr := got.Parse(doc), json.Unmarshal(doc, &want)
		if (wantErr == nil) != (depth <= maxDepth) {
			t.Fatalf("depth %d: json.Unmarshal says %v", depth, wantErr)
		}
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("depth %d: Parse = %+v, %v; json.Unmarshal = %+v, %v", depth, got, gotErr, want, wantErr)
		}
	}
}

// TestRatingStatusParseAllocatesNothing: a string whose text is one of
// the rating statuses, or one of the known values Parse is handed (the
// caller's session ID or video name), parses into that string, so reading
// it copies no text, and the result still equals json.Unmarshal's. Any
// other string is copied as it stands, and a weights body allocates its
// array once, whatever its length.
func TestRatingStatusParseAllocatesNothing(t *testing.T) {
	const vid = "Soccer1"
	for _, row := range []struct {
		doc    string
		into   any // a *T the doc is parsed into, after zeroing
		known  []string
		allocs float64
	}{
		{`{"chunk":3,"status":"accepted","epoch":7}`, new(RatingResponse), nil, 0},
		{`{"chunk":3,"status":"quarantined","epoch":7}`, new(RatingResponse), nil, 0},
		{`{"chunk":3,"status":"accept\u0065d","epoch":7}`, new(RatingResponse), nil, 0},
		{`{"chunk":3,"status":"Accepted","epoch":7}`, new(RatingResponse), nil, 1},
		{`{"chunk":3,"status":"accepted ","epoch":7}`, new(RatingResponse), nil, 1},
		{`{"video":"Soccer1","chunk":3,"status":"accepted","epoch":7}`, new(RatingResponse), []string{vid}, 0},
		{`{"video":"Soccer1","chunk":3,"status":"accepted","epoch":7}`, new(RatingResponse), nil, 1},
		{`{"session_id":"9f3a","chunk":3,"epoch":7,"rating":4}`, new(RatingRequest), []string{"9f3a"}, 0},
		{`{"session_id":"9f3a","chunk":3,"epoch":7,"rating":4}`, new(RatingRequest), []string{"9f3b"}, 1},
		{`{"session_id":"9f3a","video":"Soccer1","trace":"","timescale":1}`, new(JoinResponse), []string{vid}, 1},
		{`{"video":"Soccer1","epoch":3,"weights":[0.5,1.25,2,1e-3, 4]}`, new(WeightsResponse), []string{vid}, 1},
		{`{"video":"Soccer1","epoch":3,"weights":[]}`, new(WeightsResponse), []string{vid}, 0},
	} {
		data := []byte(row.doc)
		if err := parseInto(row.into, data, row.known); err != nil {
			t.Fatalf("%s: %v", row.doc, err)
		}
		want := reflect.New(reflect.TypeOf(row.into).Elem()).Interface()
		if err := json.Unmarshal(data, want); err != nil {
			t.Fatalf("%s: json.Unmarshal: %v", row.doc, err)
		}
		if !reflect.DeepEqual(row.into, want) {
			t.Fatalf("%s: Parse = %+v, json.Unmarshal = %+v", row.doc, row.into, want)
		}
		if raceEnabled {
			continue
		}
		got := testing.AllocsPerRun(100, func() {
			if err := parseInto(row.into, data, row.known); err != nil {
				t.Fatal(err)
			}
		})
		if got != row.allocs {
			t.Errorf("%s known %q: Parse allocates %.1f objects, want %.0f", row.doc, row.known, got, row.allocs)
		}
	}
}

// parseInto zeroes *m and parses data into it.
func parseInto(m any, data []byte, known []string) error {
	switch m := m.(type) {
	case *RatingResponse:
		*m = RatingResponse{}
		return m.Parse(data, known...)
	case *RatingRequest:
		*m = RatingRequest{}
		return m.Parse(data, known...)
	case *JoinResponse:
		*m = JoinResponse{}
		return m.Parse(data, known...)
	case *WeightsResponse:
		*m = WeightsResponse{}
		return m.Parse(data, known...)
	}
	panic("parseInto: no such body")
}
