package dash

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qlog"
	"sensei/internal/qoe"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// TestSessionFileDoesNoIO pins the split between the step machine and its
// driver: session.go decides, client.go does the I/O, so the machine's file
// may import nothing that reaches a socket, a context or a clock.
func TestSessionFileDoesNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "session.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "context", "net", "net/http", "sensei/internal/vclock":
			t.Errorf("session.go imports %q; the step machine must leave I/O to its driver", path)
		}
	}
}

// Reply shapes a scripted origin can give a request, one script byte each
// (modulo numShapes); an exhausted script answers every request with
// shapeOK.
const (
	shapeOK       = iota
	shape5xx      // 503: a fault
	shapeReset    // transport failure before any reply: a fault
	shapeTruncate // 200 declaring the full Content-Length, half delivered
	shapeShort    // 200 one byte short, no Content-Length
	shapeCut      // 200, half the body, then a read error
	shape409      // conflict: a DELETE's drain, anything else's refusal
	shape404      // gone: a DELETE's success, anything else's refusal
	shapeBump     // OK, and the origin's weight epoch advances first
	shapePoison   // OK, but a /weights body carries an invalid weight
	shapeSlow     // OK after 30 s
	shapeCancel   // the caller gives up
	numShapes
)

var errCanceled = errors.New("scripted cancel")

// scriptOrigin answers a session's ops from a script, tallying what the
// session's ledgers must then say.
type scriptOrigin struct {
	v        *video.Video
	s        *session
	script   []byte
	manifest []byte
	epoch    uint64 // the weight epoch the origin advertises
	// faulted counts replies the client must ledger as faults, truncated
	// the segment ones among them that delivered a body of the wrong
	// size, and bytes the segment payload delivered, whole or partial.
	faulted, truncated, bytes int64
}

func (o *scriptOrigin) reply(op op) reply {
	shape := shapeOK
	if len(o.script) > 0 {
		shape = int(o.script[0]) % numShapes
	}
	// A pause takes its script byte only to be canceled, so a script
	// reads as the requests it answers.
	if op.call.Route.Method() == "" && shape != shapeCancel {
		return reply{}
	}
	if len(o.script) > 0 {
		o.script = o.script[1:]
	}
	if op.call.Route.Method() == "" {
		return reply{stop: errCanceled}
	}
	r := reply{status: 200, clen: -1, sec: 0.2}
	switch shape {
	case shape5xx:
		o.faulted++
		return reply{status: 503, body: []byte("overloaded"), sec: 0.01}
	case shapeReset:
		o.faulted++
		return reply{err: io.ErrUnexpectedEOF, sec: 0.01}
	case shape409:
		return reply{status: 409, body: []byte("draining"), clen: -1}
	case shape404:
		return reply{status: 404, body: []byte("gone"), clen: -1}
	case shapeCancel:
		return reply{err: errCanceled, stop: errCanceled}
	case shapeBump:
		o.epoch++
	case shapeSlow:
		r.sec = 30
	}
	r.epoch = o.epoch
	segment := strings.Contains(target(op), "/segment/")
	var size int64
	switch {
	case op.call.Route.Method() == "DELETE":
		return reply{status: 204, clen: 0}
	case segment:
		size = int64(o.v.ChunkSizeBits(o.s.i, o.s.rung) / 8)
	case strings.HasSuffix(target(op), "/session"):
		r.body = fmt.Appendf(nil, `{"session_id":"fuzz","video":%q,"trace":"flat","timescale":1}`, o.v.Name)
	case strings.Contains(target(op), "manifest.mpd"):
		r.body = o.manifest
	case strings.Contains(target(op), "/weights"):
		w := "1"
		if shape == shapePoison {
			w = "-1"
		}
		r.body = fmt.Appendf(nil, `{"video":%q,"epoch":%d,"weights":[%s%s]}`, o.v.Name, o.epoch, w, strings.Repeat(",1", o.v.NumChunks()-1))
	case strings.Contains(target(op), "/rating"):
		var req wire.RatingRequest
		if err := req.Parse(op.call.Body); err != nil {
			panic(err)
		}
		status := wire.StatusAccepted
		if req.Epoch != o.epoch {
			status = wire.StatusQuarantined
		}
		r.body = fmt.Appendf(nil, `{"video":%q,"chunk":%d,"status":%q,"epoch":%d}`, o.v.Name, req.Chunk, status, o.epoch)
	}
	if !segment {
		size = int64(len(r.body))
	}
	r.n = size
	// A GET's broken body is a fault, and a segment's a truncation too; a
	// POST's is not retried. Only a declared Content-Length or a known
	// segment size can tell a short body apart from a whole one.
	broken := op.call.Route.Method() == "GET" && (shape == shapeTruncate || shape == shapeCut || segment && shape == shapeShort)
	switch shape {
	case shapeTruncate:
		r.n, r.clen = size/2, size
	case shapeShort:
		r.n = size - 1
	case shapeCut:
		r.n, r.err = size/2, io.ErrUnexpectedEOF
	}
	if !segment && r.n < size {
		r.body = r.body[:r.n]
	}
	if broken {
		o.faulted++
	}
	if segment {
		o.bytes += r.n
		if broken {
			o.truncated++
		}
	}
	return r
}

// drive runs s to its end on answer's replies, advancing time by what each
// op took.
func drive(t *testing.T, s *session, answer func(op) reply) {
	now := time.Duration(0)
	for ops := 0; ; ops++ {
		op, ok := s.next(now)
		if !ok {
			return
		}
		if ops > 100000 {
			t.Fatalf("session still running after %d ops", ops)
		}
		r := answer(op)
		now += op.d + time.Duration(r.sec*float64(time.Second))
		s.complete(now, &r)
	}
}

// fuzzRater rates every chunk 4.
type fuzzRater struct{}

func (fuzzRater) RateChunk(*qoe.Rendering, int) (int, bool) { return 4, true }

// FuzzSession drives the step machine directly, with no server, on
// scripted replies: 5xx, transport errors, truncated, cut and wrong-size
// bodies, 409s while draining, epoch bumps, poisoned weights, slow bodies
// and cancellation. The first byte configures the client (rater, retry
// budget, rung choice, buffer cap); every later one shapes the reply to
// one op. A session never panics; it either delivers every chunk exactly
// once or ends with a named error; and whatever the script, the ledgers
// add up: Faults() is the number of faulted replies, Truncations the
// truncated segment replies (so at most the segment faults),
// BytesDownloaded what the segments delivered whole or in part, and
// Degradations() the number of degradation events.
func FuzzSession(f *testing.F) {
	v := testVideo(f)
	n := v.NumChunks()
	manifest := scriptManifest(f, v)
	f.Fuzz(func(t *testing.T, script []byte) {
		var cfg byte
		if len(script) > 0 {
			cfg, script = script[0], script[1:]
		}
		top := len(v.Ladder) - 1
		pick := [4]func(i int) int{
			func(int) int { return 0 },
			func(int) int { return top },
			func(i int) int { return i % len(v.Ladder) },
			func(i int) int { return top - i%2 },
		}[cfg>>3&3]
		events := qlog.NewRing(1 << 14)
		c := &Client{
			BaseURL: "http://origin.fuzz",
			Algorithm: scriptedABR{decide: func(s *player.State) player.Decision {
				return player.Decision{Rung: pick(s.ChunkIndex)}
			}},
			Retry:  par.Backoff{Attempts: []int{-1, 1, 2, 3}[cfg>>1&3], Base: time.Millisecond},
			Events: events,
		}
		if cfg&1 != 0 {
			c.Rater = fuzzRater{}
		}
		if cfg&32 != 0 {
			c.MaxBufferSec = 8
		}
		o := &scriptOrigin{v: v, s: &c.s, script: script, manifest: manifest, epoch: 1}
		c.videoName, c.s = v.Name, session{c: c, v: v, step: stepJoin}
		drive(t, &c.s, o.reply)
		stream := c.s
		if c.sid != "" {
			c.s = session{c: c, step: stepLeave}
			drive(t, &c.s, o.reply)
		}

		evs := events.Drain(nil)
		if events.Drops() != 0 {
			t.Fatalf("the event ring dropped %d events", events.Drops())
		}
		tally := qlog.TallyOf(evs, 0)
		res := c.Resilience()
		if res.Faults() != o.faulted {
			t.Errorf("Faults() = %d, the script faulted %d replies", res.Faults(), o.faulted)
		}
		if res.Truncations != o.truncated || res.Truncations > res.FaultsByKind["segment"] {
			t.Errorf("Truncations = %d, the script truncated %d segments; segment faults %d", res.Truncations, o.truncated, res.FaultsByKind["segment"])
		}
		if got := tally.Count(qlog.KindDegradation); res.Degradations() != got {
			t.Errorf("Degradations() = %d, %d degradation events", res.Degradations(), got)
		}
		if got := tally.Count(qlog.KindRetry); res.Retries != got {
			t.Errorf("Retries = %d, %d retry events", res.Retries, got)
		}
		if stream.err != nil {
			if !strings.HasPrefix(stream.err.Error(), "dash: ") {
				t.Fatalf("unnamed error %q", stream.err)
			}
			return
		}
		sess := stream.sess
		if err := sess.Rendering.Validate(); err != nil {
			t.Fatal(err)
		}
		var done []int32
		for _, ev := range evs {
			if ev.Kind == qlog.KindChunkDone {
				done = append(done, ev.Chunk)
			}
		}
		if len(done) != n || len(sess.ThroughputBps) != n {
			t.Fatalf("%d chunk_done events and %d throughput samples for %d chunks", len(done), len(sess.ThroughputBps), n)
		}
		for i, chunk := range done {
			if int(chunk) != i {
				t.Fatalf("chunk_done order %v", done)
			}
		}
		if sess.BytesDownloaded != o.bytes {
			t.Errorf("BytesDownloaded = %d, the segments delivered %d", sess.BytesDownloaded, o.bytes)
		}
		if sess.RatingsPosted != sess.RatingsAccepted+sess.RatingsQuarantined {
			t.Errorf("ratings %d posted, %d accepted, %d quarantined", sess.RatingsPosted, sess.RatingsAccepted, sess.RatingsQuarantined)
		}
	})
}

// scriptManifest is the manifest a scripted origin serves for v: every
// chunk weighted 1 at epoch 1.
func scriptManifest(tb testing.TB, v *video.Video) []byte {
	mpd, err := wire.BuildMPDProfile(v, uniformW(v.NumChunks(), 1), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return mpd.AppendMPD(nil)
}

// scriptedStream joins, streams v and leaves on a client that asks for
// the rung pick(i) at chunk i, with no retries and a Rater, answering each
// op with answer. It returns the stream's session and Leave's error.
func scriptedStream(t *testing.T, v *video.Video, pick func(i int) int, answer func(*scriptOrigin, op) reply) (*session, error) {
	c := &Client{
		BaseURL: "http://origin.fuzz",
		Algorithm: scriptedABR{decide: func(s *player.State) player.Decision {
			return player.Decision{Rung: pick(s.ChunkIndex)}
		}},
		Retry: par.Backoff{Attempts: -1},
		Rater: fuzzRater{},
	}
	o := &scriptOrigin{v: v, s: &c.s, manifest: scriptManifest(t, v), epoch: 1}
	reply := func(op op) reply { return answer(o, op) }
	c.videoName, c.s = v.Name, session{c: c, v: v, step: stepJoin}
	drive(t, &c.s, reply)
	stream := c.s
	if c.sid == "" {
		return &stream, nil
	}
	c.s = session{c: c, step: stepLeave}
	drive(t, &c.s, reply)
	return &stream, c.s.err
}

// TestSessionStatusRules pins which statuses complete a request: 200 for a
// GET or POST, 204 or 404 for a DELETE. Any other status, another 2xx
// included, is refused as a status error and its body never parsed.
func TestSessionStatusRules(t *testing.T) {
	v := testVideo(t)
	top := func(int) int { return len(v.Ladder) - 1 }
	for _, tc := range []struct {
		method, target string // the request answered with status
		status         int
		err            string // what the error names, "" for success
	}{
		{"POST", "/session", 201, "dash: POST /session: status 201"},
		{"GET", "manifest.mpd", 204, "manifest.mpd?sid=fuzz: status 204"},
		{"GET", "/segment/", 206, "?sid=fuzz: status 206"},
		{"POST", "/rating", 202, "dash: POST /rating?sid=fuzz: status 202"},
		{"DELETE", "/session/", 200, "dash: DELETE /session/fuzz: status 200"},
		{"DELETE", "/session/", 204, ""},
		{"DELETE", "/session/", 404, ""},
	} {
		stream, leave := scriptedStream(t, v, top, func(o *scriptOrigin, op op) reply {
			r := o.reply(op)
			if op.call.Route.Method() == tc.method && strings.Contains(target(op), tc.target) {
				r.status = tc.status
			}
			return r
		})
		err := stream.err
		if tc.method == "DELETE" {
			if err != nil {
				t.Fatalf("%d to a DELETE: the stream failed: %v", tc.status, err)
			}
			err = leave
		}
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s %s answered %d: %v", tc.method, tc.target, tc.status, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s %s answered %d: error %v, want one naming %q", tc.method, tc.target, tc.status, err, tc.err)
		}
	}
}

// TestSegmentFallbackAcquisition pins what a segment fallback keeps of the
// failed rung: its partial bytes and their seconds stay in the byte
// ledger, but the playback buffer drains for the fallback rung's
// acquisition alone. Chunk 1's top-rung attempt is truncated after 10 s,
// longer than the buffer holds; with no retries left the chunk falls back
// to rung 0 and lands in 0.2 s. The stream must play out exactly like one
// that asked for rung 0 at chunk 1 and got it at once.
func TestSegmentFallbackAcquisition(t *testing.T) {
	v := testVideo(t)
	top := len(v.Ladder) - 1
	half := int64(v.ChunkSizeBits(1, top) / 8 / 2)
	truncated := false
	faulted, err := scriptedStream(t, v, func(int) int { return top }, func(o *scriptOrigin, op op) reply {
		r := o.reply(op)
		if !truncated && o.s.i == 1 && strings.Contains(target(op), "/segment/") {
			truncated = true
			r.n, r.clen, r.sec = half, 2*half, 10
		}
		return r
	})
	if err != nil || faulted.err != nil {
		t.Fatalf("faulted stream: %v; leave: %v", faulted.err, err)
	}
	clean, err := scriptedStream(t, v, func(i int) int {
		if i == 1 {
			return 0
		}
		return top
	}, func(o *scriptOrigin, op op) reply { return o.reply(op) })
	if err != nil || clean.err != nil {
		t.Fatalf("clean stream: %v; leave: %v", clean.err, err)
	}
	f, c := faulted.sess, clean.sess
	if res := f.Resilience; res.Truncations != 1 || res.SegmentFallbacks != 1 {
		t.Fatalf("faulted stream: %d truncations, %d fallbacks; want 1 and 1", res.Truncations, res.SegmentFallbacks)
	}
	if !slices.Equal(f.Rendering.Rungs, c.Rendering.Rungs) || !slices.Equal(f.Rendering.StallSec, c.Rendering.StallSec) {
		t.Errorf("rungs %v, stalls %v; the clean stream played rungs %v, stalls %v",
			f.Rendering.Rungs, f.Rendering.StallSec, c.Rendering.Rungs, c.Rendering.StallSec)
	}
	if f.RebufferVirtualSec != c.RebufferVirtualSec || !slices.Equal(f.ThroughputBps, c.ThroughputBps) {
		t.Errorf("rebuffer %v s, throughput %v; the clean stream's %v s, %v", f.RebufferVirtualSec, f.ThroughputBps, c.RebufferVirtualSec, c.ThroughputBps)
	}
	if f.BytesDownloaded != c.BytesDownloaded+half || math.Abs(f.DownloadVirtualSec-c.DownloadVirtualSec-10) > 1e-9 {
		t.Errorf("%d bytes in %v s; want the clean stream's %d + %d bytes in %v + 10 s",
			f.BytesDownloaded, f.DownloadVirtualSec, c.BytesDownloaded, half, c.DownloadVirtualSec)
	}
}

// target is o's request target, as errors name it.
func target(o op) string { return string(o.call.AppendTarget(nil)) }
