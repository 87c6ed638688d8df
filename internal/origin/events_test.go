package origin

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sensei/internal/qlog"
	"sensei/internal/wire"
)

// newEventsOrigin builds an in-memory origin with the event plane on.
func newEventsOrigin(t testing.TB) *Origin {
	t.Helper()
	cfg := hotPathConfig(t)
	cfg.Events = &EventsConfig{RingCapacity: 1 << 12}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// joinEventsDirect registers a session with its event ring, without HTTP.
func joinEventsDirect(t testing.TB, o *Origin) *session {
	t.Helper()
	s := joinDirect(t, o)
	s.ring = qlog.NewRing(o.eventsCap)
	return s
}

// TestSegmentSteadyStateZeroAllocEvents re-pins the PR 7 hot-path contract
// with the event plane ON: the per-segment mirror emit and metrics
// observations add no allocation of their own. The session's ring installs
// one 8 KiB block per 64 mirrors on its first lap (3 over these 200
// segments), which AllocsPerRun's truncated average reads as 0; qlog's
// TestRingBlockAllocs counts those exactly.
func TestSegmentSteadyStateZeroAllocEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	o := newEventsOrigin(t)
	v := o.cfg.Catalog[0]
	s := joinEventsDirect(t, o)

	if _, err := o.profileOf(o.videos[v.Name]); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v/%s/segment/0/%d?sid=%s", v.Name, hotPathRung, s.id), nil)
	req.SetPathValue("video", v.Name)
	req.SetPathValue("chunk", "0")
	req.SetPathValue("rung", fmt.Sprint(hotPathRung))
	w := &nullResponseWriter{h: make(http.Header)}

	o.handleSegment(w, req) // warm
	if w.n == 0 {
		t.Fatal("warm-up request served no bytes")
	}
	wantBytes := w.n

	allocs := testing.AllocsPerRun(200, func() {
		w.n = 0
		o.handleSegment(w, req)
		if w.n != wantBytes {
			t.Fatalf("served %d bytes, want %d", w.n, wantBytes)
		}
	})
	if allocs != 0 {
		t.Fatalf("events-on segment path allocates %.1f objects/op, want 0", allocs)
	}
	if got := o.events.SegmentsServed.Load(); got < 201 {
		t.Fatalf("metrics counted %d segments, want >= 201", got)
	}
	want := fmt.Sprintf("sensei_segment_latency_seconds_count %d\n", o.events.SegmentsServed.Load())
	if text := o.events.AppendPrometheus(nil); !bytes.Contains(text, []byte(want)) {
		t.Fatalf("latency observations do not match segments: no %q in\n%s", want, text)
	}
}

// TestMetricsSteadyStateZeroAlloc pins the /metrics serving contract:
// after the first scrape sizes the recycled render buffer, serving the
// exposition allocates nothing — no locks, no per-scrape garbage.
func TestMetricsSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	o := newEventsOrigin(t)
	// Put some load on the registry so every family renders real numbers.
	o.events.SegmentLatency.Observe(3_000_000)
	o.events.SegmentsServed.Add(12345)
	o.events.BytesServed.Add(1 << 30)
	o.events.Retries.Add(7)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := &nullResponseWriter{h: make(http.Header)}
	o.handleMetrics(w, req) // warm: sizes the recycled buffer
	if w.n == 0 {
		t.Fatal("warm-up scrape wrote nothing")
	}

	allocs := testing.AllocsPerRun(200, func() {
		w.n = 0
		o.handleMetrics(w, req)
		if w.n == 0 {
			t.Fatal("scrape wrote nothing")
		}
	})
	if allocs != 0 {
		t.Fatalf("/metrics serving path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestOriginEventsDrain exercises the full wire shape of the event plane:
// mirrored join/segment events drain as JSON lines with a working since=
// cursor, the drop header rides along, and /metrics exposes the matching
// aggregates.
func TestOriginEventsDrain(t *testing.T) {
	o := newEventsOrigin(t)
	v := o.cfg.Catalog[0]
	srv := NewServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	// Join over the wire so the origin mints the ring itself.
	jr, err := http.Post(base+"/session", "application/json",
		strings.NewReader(fmt.Sprintf(`{"video":%q}`, v.Name)))
	if err != nil {
		t.Fatal(err)
	}
	var join wire.JoinResponse
	if err := json.NewDecoder(jr.Body).Decode(&join); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	sid := join.SessionID

	const segments = 3
	for c := 0; c < segments; c++ {
		resp, err := http.Get(fmt.Sprintf("%s/v/%s/segment/%d/%d?sid=%s", base, v.Name, c, hotPathRung, sid))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := new(bytes.Buffer).ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment %d: status %d", c, resp.StatusCode)
		}
	}

	kindOf := func(name string) qlog.Kind {
		for k := range qlog.NumKinds {
			if qlog.Kind(k).String() == name {
				return qlog.Kind(k)
			}
		}
		return qlog.KindInvalid
	}
	drain := func(since uint64) ([]qlog.Event, string) {
		resp, err := http.Get(fmt.Sprintf("%s/events?sid=%s&since=%d", base, sid, since))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/events status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("/events content type %q", ct)
		}
		var out []qlog.Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var raw struct {
				Seq   uint64 `json:"seq"`
				Kind  string `json:"kind"`
				Chunk int32  `json:"chunk"`
				Bytes int64  `json:"bytes"`
			}
			if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			out = append(out, qlog.Event{
				Seq: raw.Seq, Kind: kindOf(raw.Kind),
				Chunk: raw.Chunk, Bytes: raw.Bytes,
			})
		}
		return out, resp.Header.Get(wire.RingDropsHeader)
	}

	events, drops := drain(0)
	if drops != "0" {
		t.Fatalf("ring drops header %q, want 0", drops)
	}
	tally := qlog.TallyOf(events, 0)
	if tally.Count(qlog.KindOriginJoin) != 1 {
		t.Fatalf("join events %d, want 1", tally.Count(qlog.KindOriginJoin))
	}
	if tally.Count(qlog.KindOriginSegment) != segments {
		t.Fatalf("segment events %d, want %d", tally.Count(qlog.KindOriginSegment), segments)
	}

	// The drain consumed the ring; a re-drain from the same cursor is empty.
	again, _ := drain(events[len(events)-1].Seq)
	if len(again) != 0 {
		t.Fatalf("re-drain returned %d events, want 0", len(again))
	}

	// One more segment, drained incrementally from the cursor.
	resp, err := http.Get(fmt.Sprintf("%s/v/%s/segment/%d/%d?sid=%s", base, v.Name, segments, hotPathRung, sid))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(bytes.Buffer).ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	inc, _ := drain(events[len(events)-1].Seq)
	if len(inc) != 1 || inc[0].Kind != qlog.KindOriginSegment {
		t.Fatalf("incremental drain: %d events (want 1 origin_segment)", len(inc))
	}

	// /metrics agrees with /stats on the serving ledger.
	mres, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(mres.Body); err != nil {
		t.Fatal(err)
	}
	mres.Body.Close()
	st := o.Stats()
	want := fmt.Sprintf("sensei_segments_served_total %d", st.SegmentsServed)
	if !strings.Contains(body.String(), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, body.String())
	}
	if o.events.BytesServed.Load() != st.BytesServed {
		t.Fatalf("metrics bytes %d != stats bytes %d", o.events.BytesServed.Load(), st.BytesServed)
	}

	// Unknown sessions 404; the process ring drains with no sid.
	if r4, err := http.Get(base + "/events?sid=nosuch"); err != nil {
		t.Fatal(err)
	} else {
		r4.Body.Close()
		if r4.StatusCode != http.StatusNotFound {
			t.Fatalf("/events for unknown sid: status %d, want 404", r4.StatusCode)
		}
	}
	if rp, err := http.Get(base + "/events"); err != nil {
		t.Fatal(err)
	} else {
		rp.Body.Close()
		if rp.StatusCode != http.StatusOK {
			t.Fatalf("/events process ring: status %d, want 200", rp.StatusCode)
		}
	}
}
