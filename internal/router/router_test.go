package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"sensei/internal/ingest"
	"sensei/internal/origin"
	"sensei/internal/trace"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// testConfig builds a small router config: 4 shards, one excerpt video,
// near-infinite wire trace so tests are instant.
func testConfig(t testing.TB, shards int) Config {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards: shards,
		Origin: origin.Config{
			Catalog:      []*video.Video{v},
			Profile:      func(vv *video.Video) ([]float64, error) { return vv.TrueSensitivity(), nil },
			Traces:       map[string]*trace.Trace{"wire": {Name: "wire", BitsPerSecond: []float64{1e15}}},
			DefaultTrace: "wire",
			TimeScale:    0.001,
		},
	}
}

// startRouter boots a router server and tears it down with the test.
func startRouter(t testing.TB, shards int) (*Server, string) {
	t.Helper()
	rt, err := New(testConfig(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(rt)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + addr
}

func joinSession(t testing.TB, base string) wire.JoinResponse {
	t.Helper()
	body, _ := json.Marshal(wire.JoinRequest{Video: "Soccer1[0:6]"})
	resp, err := http.Post(base+"/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s", resp.Status)
	}
	var jr wire.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

func fetchSegment(t *testing.T, base, sid string, chunk, rung int) *http.Response {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v/Soccer1[0:6]/segment/%d/%d?sid=%s", base, chunk, rung, sid))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRingDeterministicAndBalanced pins the ring contract: a key always
// maps to the same shard, and synthetic session IDs spread across shards
// without any shard starving.
func TestRingDeterministicAndBalanced(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("%016x", i*2654435761)
		s := r.Owner(key)
		if again := r.Owner(key); again != s {
			t.Fatalf("Owner(%q) unstable: %d then %d", key, s, again)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("Owner(%q) = %d out of range", key, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 400 {
			t.Fatalf("shard %d starved: %d of 4000 keys (counts %v)", s, n, counts)
		}
	}
	// A rebuilt ring assigns identically (pure function of shard count).
	r2 := newRing(4)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("sid-%d", i)
		if r.Owner(key) != r2.Owner(key) {
			t.Fatalf("ring not deterministic across construction for %q", key)
		}
	}
}

// TestStickySessions proves the join→stream→leave lifecycle lands every
// request of one session on the shard the ring names, with no router-side
// session state.
func TestStickySessions(t *testing.T) {
	srv, base := startRouter(t, 4)
	rt := srv.Router()

	const n = 32
	sids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		jr := joinSession(t, base)
		sids = append(sids, jr.SessionID)
	}
	// Each session's registry entry is on exactly its owner shard.
	for _, sid := range sids {
		owner := rt.Owner(sid)
		for i, o := range rt.Shards() {
			st := o.Stats()
			found := false
			for _, row := range st.Sessions {
				if row.ID == sid {
					found = true
				}
			}
			if found != (i == owner) {
				t.Fatalf("session %s: found on shard %d, owner is %d", sid, i, owner)
			}
		}
	}
	// Stream a segment per session and leave; the per-shard ledgers must
	// account for exactly the sessions the ring assigned them.
	for _, sid := range sids {
		resp := fetchSegment(t, base, sid, 0, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment via router: %s", resp.Status)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		req, _ := http.NewRequest(http.MethodDelete, base+"/session/"+sid, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNoContent {
			t.Fatalf("leave via router: %s", dresp.Status)
		}
	}
	merged := rt.Stats()
	if merged.SessionsCreated != n || merged.SessionsClosed != n || merged.ActiveSessions != 0 {
		t.Fatalf("merged lifecycle counters: %+v", merged.Stats)
	}
	if merged.SegmentsServed != n {
		t.Fatalf("merged segments: %d, want %d", merged.SegmentsServed, n)
	}
	var perShardSessions int64
	for _, s := range merged.Shards {
		perShardSessions += s.SessionsCreated
	}
	if perShardSessions != n {
		t.Fatalf("shard rows sum to %d sessions, want %d", perShardSessions, n)
	}
}

// TestStatsMergeExact reconciles the merged /stats against the per-shard
// rows it carries: every summed counter must equal the sum of its shard
// values, over the wire.
func TestStatsMergeExact(t *testing.T) {
	_, base := startRouter(t, 4)
	for i := 0; i < 16; i++ {
		jr := joinSession(t, base)
		resp := fetchSegment(t, base, jr.SessionID, i%6, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment: %s", resp.Status)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var bytes, segs, created int64
	var active int
	hits := map[string]int64{}
	for _, s := range st.Shards {
		bytes += s.BytesServed
		segs += s.SegmentsServed
		created += s.SessionsCreated
		active += s.ActiveSessions
		for name, n := range s.VideoHits {
			hits[name] += n
		}
	}
	if st.BytesServed != bytes || st.SegmentsServed != segs || st.SessionsCreated != created || st.ActiveSessions != active {
		t.Fatalf("merged stats disagree with shard rows: merged %+v", st.Stats)
	}
	for name, n := range hits {
		if st.VideoHits[name] != n {
			t.Fatalf("video hits for %q: merged %d, shard sum %d", name, st.VideoHits[name], n)
		}
	}
	if st.SegmentsServed != 16 {
		t.Fatalf("segments served: %d, want 16", st.SegmentsServed)
	}
}

// TestSharedEpochAcrossShards proves the weight plane is global: a refresh
// through the router bumps the epoch beacon on segment responses from
// sessions living on different shards.
func TestSharedEpochAcrossShards(t *testing.T) {
	srv, base := startRouter(t, 4)
	rt := srv.Router()

	// Join until at least two distinct shards hold a session.
	shardOf := map[int]string{}
	for i := 0; i < 64 && len(shardOf) < 2; i++ {
		jr := joinSession(t, base)
		owner := rt.Owner(jr.SessionID)
		if _, ok := shardOf[owner]; !ok {
			shardOf[owner] = jr.SessionID
		}
	}
	if len(shardOf) < 2 {
		t.Fatal("64 joins landed on one shard; ring badly unbalanced")
	}
	epochOn := func(sid string) string {
		resp := fetchSegment(t, base, sid, 0, 0)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment: %s", resp.Status)
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get(wire.WeightEpochHeader)
	}
	before := map[string]string{}
	for _, sid := range shardOf {
		before[sid] = epochOn(sid)
	}
	body, _ := json.Marshal(wire.RefreshRequest{Video: "Soccer1[0:6]", From: 0, To: 3})
	resp, err := http.Post(base+"/refresh", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh via router: %s", resp.Status)
	}
	for shard, sid := range shardOf {
		after := epochOn(sid)
		if after == before[sid] {
			t.Fatalf("shard %d session %s still advertises epoch %s after refresh", shard, sid, after)
		}
	}
}

// TestRouterRejectsIngest pins the compatibility contract: the feedback
// autopilot is not shard-aware, so a router config carrying it must fail
// loudly at construction, not misbehave at runtime.
func TestRouterRejectsIngest(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Origin.Ingest = &ingest.Config{}
	if _, err := New(cfg); err == nil {
		t.Fatal("router accepted an ingest-enabled origin config")
	}
}

// BenchmarkRouterSegment measures parallel bottom-rung segment throughput
// through a 4-shard router: 8 sessions, spread across the shards by the
// consistent hash, each streamed by its own worker over keep-alive
// connections — sid hash, shard dispatch, striped registry and serving.
func BenchmarkRouterSegment(b *testing.B) {
	const sessions = 8
	_, base := startRouter(b, 4)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2*sessions + 8}}
	defer httpc.CloseIdleConnections()
	fetch := func(url string) (int64, error) {
		resp, err := httpc.Get(url)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("segment: %s", resp.Status)
		}
		return io.Copy(io.Discard, resp.Body)
	}
	urls := make([]string, sessions)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/v/Soccer1[0:6]/segment/0/0?sid=%s", base, joinSession(b, base).SessionID)
	}
	segBytes, err := fetch(urls[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(segBytes)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		url := urls[int(next.Add(1)-1)%sessions]
		for pb.Next() {
			n, err := fetch(url)
			if err == nil && n != segBytes {
				err = fmt.Errorf("segment of %d bytes, want %d", n, segBytes)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
