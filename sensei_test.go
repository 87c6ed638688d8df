package sensei_test

import (
	"context"
	"testing"

	"sensei"
)

// TestPublicAPIWorkflow exercises the documented quickstart path end to end
// through the facade only.
func TestPublicAPIWorkflow(t *testing.T) {
	v, err := sensei.VideoByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := sensei.NewPopulation(sensei.PopulationConfig{Size: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clip, err := v.Excerpt(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := sensei.NewProfiler(pop).Profile(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile.Weights) != clip.NumChunks() {
		t.Fatalf("%d weights", len(profile.Weights))
	}
	tr := sensei.GenerateTrace(sensei.TraceSpec{
		Name: "api", Kind: sensei.TraceFCC, MeanBps: 1.5e6, Seconds: 600, Seed: 2,
	})
	res, err := sensei.Stream(clip, tr, sensei.NewSenseiFugu(), profile.Weights)
	if err != nil {
		t.Fatal(err)
	}
	q := sensei.TrueQoE(res.Rendering)
	if q <= 0 || q > 1 {
		t.Fatalf("QoE %v out of range", q)
	}
	if sensei.SessionQoE(res.Rendering) <= 0 {
		t.Fatal("session QoE not positive")
	}
	if sensei.WeightedSessionQoE(res.Rendering, profile.Weights) <= 0 {
		t.Fatal("weighted session QoE not positive")
	}
}

func TestPublicAPICatalog(t *testing.T) {
	if got := len(sensei.VideoCatalog()); got != 16 {
		t.Fatalf("catalog size %d", got)
	}
	if got := len(sensei.EvaluationTraces()); got != 10 {
		t.Fatalf("trace set size %d", got)
	}
}

func TestPublicAPIDASH(t *testing.T) {
	v, err := sensei.VideoByName("Lava")
	if err != nil {
		t.Fatal(err)
	}
	clip, err := v.Excerpt(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := sensei.VideoByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	clip2, err := v2.Excerpt(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := sensei.GenerateTrace(sensei.TraceSpec{Name: "d", Kind: sensei.TraceFCC, MeanBps: 5e6, Seconds: 300, Seed: 5})
	o, err := sensei.NewDASHOrigin(sensei.DASHOriginConfig{
		Catalog: []*sensei.Video{clip, clip2},
		Profile: func(v *sensei.Video) ([]float64, error) {
			weights := make([]float64, v.NumChunks())
			for i := range weights {
				weights[i] = 1
			}
			return weights, nil
		},
		Traces:       map[string]*sensei.Trace{"d": tr},
		DefaultTrace: "d",
		TimeScale:    0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := sensei.NewDASHServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &sensei.DASHClient{BaseURL: "http://" + addr, Algorithm: sensei.NewBBA()}
	sess, err := client.Stream(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	if sess.BytesDownloaded == 0 {
		t.Fatal("no traffic")
	}
	if len(sess.Weights) != clip.NumChunks() {
		t.Fatalf("manifest carried %d weights", len(sess.Weights))
	}
	st := o.Stats()
	if st.ActiveSessions != 1 || st.BytesServed != sess.BytesDownloaded {
		t.Fatalf("origin stats %+v", st)
	}
}

func TestPublicAPIFleet(t *testing.T) {
	catalog := make([]*sensei.Video, 0, 2)
	for _, name := range []string{"Soccer1", "Tank"} {
		v, err := sensei.VideoByName(name)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := v.Excerpt(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, clip)
	}
	tr := sensei.GenerateTrace(sensei.TraceSpec{Name: "f", Kind: sensei.TraceFCC, MeanBps: 2e7, Seconds: 300, Seed: 9})
	report, err := sensei.RunFleet(context.Background(), sensei.FleetConfig{
		Sessions:   6,
		Videos:     catalog,
		Traces:     map[string]*sensei.Trace{"f": tr},
		ABRs:       []sensei.FleetABR{sensei.FleetRateBased, sensei.FleetSensei},
		TimeScales: []float64{0.05},
		Profile:    func(v *sensei.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || !report.Reconciliation.Ok {
		t.Fatalf("fleet did not reconcile:\n%s", report.Render())
	}
	if report.Origin.BytesServed != report.BytesDownloaded {
		t.Fatalf("ledger mismatch: origin %d, fleet %d", report.Origin.BytesServed, report.BytesDownloaded)
	}
}
