// Command dashclient joins a session on a dashserver origin and streams a
// catalog video, driving a selectable ABR algorithm and reporting the
// delivered quality. SENSEI weights arrive via the manifest's
// SenseiWeights extension (§6); the session's egress is shaped by the
// trace chosen at join time, independently of every other session.
//
// Usage:
//
//	dashclient [-url http://127.0.0.1:8428] [-video Soccer1] [-excerpt N]
//	           [-abr sensei-fugu|fugu|bba] [-trace name] [-timescale 0]
//
// -excerpt must match the server's -excerpt so the local video model
// agrees with the manifest (the client validates the ladder). A zero
// -timescale adopts whatever the origin assigns at join.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"sensei"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8428", "origin base URL")
	name := flag.String("video", "Soccer1", "catalog video name (must be in the origin's catalog)")
	excerpt := flag.Int("excerpt", 0, "first-N-chunks excerpt; must match the server's -excerpt")
	abrName := flag.String("abr", "sensei-fugu", "abr algorithm: sensei-fugu, fugu or bba")
	traceName := flag.String("trace", "", "origin-side trace to replay (empty = origin default)")
	timescale := flag.Float64("timescale", 0, "virtual-time compression; 0 adopts the origin's")
	reqTimeout := flag.Duration("reqtimeout", 0, "per-request timeout; 0 = client default, negative disables (use for real-time sessions)")
	flag.Parse()

	v, err := sensei.VideoByName(*name)
	if err != nil {
		fail(err)
	}
	if *excerpt > 0 {
		n := *excerpt
		if n > v.NumChunks() {
			n = v.NumChunks()
		}
		if v, err = v.Excerpt(0, n); err != nil {
			fail(err)
		}
	}
	var alg sensei.Algorithm
	switch *abrName {
	case "sensei-fugu":
		alg = sensei.NewSenseiFugu()
	case "fugu":
		alg = sensei.NewFugu()
	case "bba":
		alg = sensei.NewBBA()
	default:
		fail(fmt.Errorf("unknown abr %q", *abrName))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	client := &sensei.DASHClient{
		BaseURL:        *url,
		Algorithm:      alg,
		Trace:          *traceName,
		TimeScale:      *timescale,
		RequestTimeout: *reqTimeout,
	}
	if err := client.Join(ctx, v.Name); err != nil {
		fail(err)
	}
	fmt.Printf("session %s: streaming %s from %s with %s...\n",
		client.SessionID(), v.Name, *url, alg.Name())
	sess, err := client.Stream(ctx, v)
	// Hang up before reporting, and also after a failed or interrupted
	// stream (on a fresh context, since ctx may be the interrupt's): fail
	// exits at once, and the origin would hold the session until its idle
	// janitor expires it.
	_ = client.Leave(context.Background())
	if err != nil {
		fail(err)
	}

	fmt.Printf("downloaded %.1f MB in %.1f virtual seconds (%.2f Mbps observed), rebuffered %.1f virtual seconds\n",
		float64(sess.BytesDownloaded)/1e6, sess.DownloadVirtualSec,
		float64(sess.BytesDownloaded)*8/sess.DownloadVirtualSec/1e6, sess.RebufferVirtualSec)
	fmt.Printf("mean bitrate: %.0f kbps, switches: %d\n",
		sess.Rendering.MeanBitrateKbps(), sess.Rendering.SwitchCount())
	if sess.Weights != nil {
		fmt.Printf("manifest carried %d sensitivity weights\n", len(sess.Weights))
		fmt.Printf("weighted session QoE: %.3f\n", sensei.WeightedSessionQoE(sess.Rendering, sess.Weights))
	}
	fmt.Printf("content-blind session QoE: %.3f\n", sensei.SessionQoE(sess.Rendering))
	fmt.Printf("latent true QoE: %.3f\n", sensei.TrueQoE(sess.Rendering))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dashclient:", err)
	os.Exit(1)
}
