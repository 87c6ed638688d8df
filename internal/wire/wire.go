// Package wire is the protocol between SENSEI's streaming client and its
// origin (§6 of the paper): the DASH manifest with its SenseiWeights
// extension, the JSON bodies of the session and sensitivity control plane,
// the X-Sensei-* header names, and the request paths. The client
// (internal/dash), the origin and the router import it; none of them
// declares any of it again.
//
//	POST   /session                           JoinRequest → JoinResponse
//	DELETE /session/{id}                      204; 409 while a segment streams
//	GET    /v/{video}/manifest.mpd[?sid=]     MPD
//	GET    /v/{video}/segment/{chunk}/{rung}?sid=  segment bytes
//	GET    /weights?sid=                      WeightsResponse
//	POST   /refresh                           RefreshRequest → RefreshResponse
//	POST   /rating?sid=                       RatingRequest → RatingResponse
//
// Manifest, segment, weights, refresh and rating responses carry
// WeightEpochHeader.
//
// The JSON bodies carry their own codec, so neither side reflects on the
// request path. AppendJSON appends exactly the bytes json.Marshal writes
// for the body. Parse accepts exactly the documents json.Unmarshal accepts
// for that type and leaves the same value behind: keys matched under
// bytes.EqualFold, unknown keys skipped, a repeated key's last value kept,
// null as a no-op, escapes and surrogates decoded alike, numbers refused
// where the field cannot hold them. Like Unmarshal, Parse refuses anything
// after the top-level value but white space. FuzzBodies holds both methods
// to encoding/json as the oracle; encoding/json stays the reference, not a
// dependency of the request path.
// FuzzMPD holds the manifest's codec, AppendMPD and ParseMPD, to
// encoding/xml the same way.
package wire

// WeightEpochHeader advertises the serving video's current
// sensitivity-profile epoch. A client comparing it against its own
// snapshot's epoch detects a mid-stream refresh without polling.
const WeightEpochHeader = "X-Sensei-Weight-Epoch"

// RingDropsHeader carries the drained event ring's cumulative drop count on
// every GET /events response, so a drainer can tell a complete trace from
// one with holes without a second request.
const RingDropsHeader = "X-Sensei-Ring-Drops"

// The two RatingResponse.Status values.
const (
	StatusAccepted    = "accepted"
	StatusQuarantined = "quarantined"
)

// JoinRequest is the POST /session body.
type JoinRequest struct {
	// Video names the catalog video the session will stream.
	Video string `json:"video"`
	// Trace optionally names the throughput trace to replay (defaults to
	// the origin's default trace).
	Trace string `json:"trace,omitempty"`
	// TimeScale optionally overrides the origin's default compression.
	TimeScale float64 `json:"timescale,omitempty"`
}

// JoinResponse is the POST /session reply.
type JoinResponse struct {
	SessionID string  `json:"session_id"`
	Video     string  `json:"video"`
	Trace     string  `json:"trace"`
	TimeScale float64 `json:"timescale"`
}

// WeightsResponse is the GET /weights reply: the current epoch-stamped
// profile of the session's video.
type WeightsResponse struct {
	Video   string    `json:"video"`
	Epoch   uint64    `json:"epoch"`
	Weights []float64 `json:"weights,omitempty"`
}

// RefreshRequest is the POST /refresh body: re-profile chunks [From, To)
// of Video and publish the result as the next epoch.
type RefreshRequest struct {
	Video string `json:"video"`
	From  int    `json:"from"`
	To    int    `json:"to"`
}

// RefreshResponse is the POST /refresh reply.
type RefreshResponse struct {
	Video string `json:"video"`
	Epoch uint64 `json:"epoch"`
}

// RatingRequest is the POST /rating body: one 1–5 in-player score for a
// rendered chunk, stamped with the weight epoch the chunk's ABR decision
// ran under (the quarantine key).
type RatingRequest struct {
	SessionID string `json:"session_id"`
	Chunk     int    `json:"chunk"`
	Epoch     uint64 `json:"epoch"`
	Rating    int    `json:"rating"`
}

// RatingResponse is the POST /rating reply. Status is StatusAccepted or
// StatusQuarantined; Epoch is the video's current profile epoch, so a
// rating reply doubles as a staleness beacon exactly like a segment
// response.
type RatingResponse struct {
	Video  string `json:"video"`
	Chunk  int    `json:"chunk"`
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
}
