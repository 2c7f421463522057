package serialgraph

import (
	"testing"

	"serialgraph/internal/metrics"
)

func TestPublicRunColoring(t *testing.T) {
	g := Undirected(GeneratePowerLaw(300, 5, 2.2, 1))
	colors, res, err := Run(g, Coloring(), Options{
		Workers: 4, Model: Async, Technique: PartitionLocking, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if err := ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRunChecked(t *testing.T) {
	g := Undirected(GeneratePowerLaw(150, 4, 2.2, 2))
	_, _, violations, err := RunChecked(g, Coloring(), Options{
		Workers: 4, Model: Async, Technique: DualToken, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if violations != nil {
		t.Fatalf("serializable run reported violations: %v", violations)
	}
}

func TestPublicRunGAS(t *testing.T) {
	g := Undirected(GeneratePowerLaw(200, 4, 2.2, 3))
	colors, res, err := RunGAS(g, ColoringGAS(), Options{
		Workers: 3, Technique: VertexLocking, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if err := ValidateColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestVertexLockingRejectedOnPregelEngine(t *testing.T) {
	g := GeneratePowerLaw(50, 3, 2.2, 4)
	if _, _, err := Run(g, SSSP(0), Options{Technique: VertexLocking}); err == nil {
		t.Error("VertexLocking accepted by Run")
	}
}

func TestPartitionLockingRejectedOnGAS(t *testing.T) {
	g := GeneratePowerLaw(50, 3, 2.2, 4)
	if _, _, err := RunGAS(g, SSSPGAS(0), Options{Technique: PartitionLocking}); err == nil {
		t.Error("PartitionLocking accepted by RunGAS")
	}
}

func TestDatasets(t *testing.T) {
	for _, name := range []string{"OR", "AR", "TW", "UK"} {
		g, err := Dataset(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
	if _, err := Dataset("XX", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestGraphRoundTripViaAPI(t *testing.T) {
	g := GeneratePowerLaw(100, 4, 2.2, 5)
	path := t.TempDir() + "/g.bin"
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the graph")
	}
}

func TestEdgeCutFraction(t *testing.T) {
	g := GeneratePowerLaw(500, 5, 2.2, 6)
	f := EdgeCutFraction(g, 16, 4, 1)
	if f <= 0.5 || f > 1 {
		t.Errorf("hash cut fraction %.2f out of expected (0.5, 1] for 16 partitions", f)
	}
}

func TestTechniqueStrings(t *testing.T) {
	want := map[Technique]string{
		NoSerializability: "none", SingleToken: "single-token", DualToken: "dual-token",
		PartitionLocking: "partition-locking", VertexLocking: "vertex-locking",
	}
	for tech, s := range want {
		if tech.String() != s {
			t.Errorf("%d.String() = %q, want %q", tech, tech.String(), s)
		}
	}
}

func TestPublicBAPModel(t *testing.T) {
	g := GeneratePowerLaw(200, 4, 2.2, 7)
	dist, res, err := Run(g, SSSP(0), Options{
		Workers: 3, Model: BAP, Technique: PartitionLocking, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BAP did not quiesce")
	}
	if dist[0] != 0 {
		t.Errorf("dist[0] = %v", dist[0])
	}
	// Token techniques are rejected on BAP.
	if _, _, err := Run(g, SSSP(0), Options{Workers: 2, Model: BAP, Technique: DualToken}); err == nil {
		t.Error("BAP accepted DualToken")
	}
}

func TestPublicRunGASChecked(t *testing.T) {
	g := Undirected(GeneratePowerLaw(120, 4, 2.2, 8))
	_, res, violations, err := RunGASChecked(g, ColoringGAS(), Options{
		Workers: 3, Technique: VertexLocking, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not quiesce")
	}
	if violations != nil {
		t.Fatalf("violations: %v", violations)
	}
}

func TestPublicNewAlgorithms(t *testing.T) {
	g := Undirected(GeneratePowerLaw(200, 5, 2.2, 9))

	states, res, err := Run(g, MISGreedy(), Options{
		Workers: 3, Model: Async, Technique: PartitionLocking, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("MIS: err=%v converged=%v", err, res.Converged)
	}
	if err := ValidateMIS(g, states); err != nil {
		t.Fatal(err)
	}

	labels, res, err := Run(g, LabelPropagation(), Options{
		Workers: 3, Model: Async, Technique: PartitionLocking, Seed: 1, MaxSupersteps: 500,
	})
	if err != nil || !res.Converged {
		t.Fatalf("LPA: err=%v converged=%v", err, res.Converged)
	}
	if len(labels) != g.NumVertices() {
		t.Error("LPA label count wrong")
	}

	kvals, res, err := Run(g, KCore(), Options{Workers: 3, Model: Async, Seed: 1})
	if err != nil || !res.Converged {
		t.Fatalf("kcore: err=%v converged=%v", err, res.Converged)
	}
	if len(KCoreEstimates(kvals)) != g.NumVertices() {
		t.Error("kcore estimate count wrong")
	}

	tvals, res, err := Run(g, TriangleCount(), Options{Workers: 3, Model: BSP, Seed: 1})
	if err != nil || !res.Converged {
		t.Fatalf("triangles: err=%v converged=%v", err, res.Converged)
	}
	var total int64
	for _, c := range tvals {
		total += int64(c)
	}
	if total < 0 {
		t.Error("negative triangle count")
	}

	gvals, res, err := Run(g, IsingGibbs(0.5, 5, 3), Options{
		Workers: 3, Model: Async, Technique: PartitionLocking, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("gibbs: err=%v converged=%v", err, res.Converged)
	}
	if m := Magnetization(gvals); m < 0 || m > 1 {
		t.Errorf("magnetization %v out of range", m)
	}
	if f := AlignedFraction(g, gvals); f < 0 || f > 1 {
		t.Errorf("aligned fraction %v out of range", f)
	}

	agg, res, err := Run(g, PageRankAggregated(0.5), Options{
		Workers: 3, Model: Async, Seed: 1,
	})
	if err != nil || !res.Converged {
		t.Fatalf("pagerank-aggregated: err=%v converged=%v", err, res.Converged)
	}
	if len(agg) != g.NumVertices() {
		t.Error("aggregated PR length wrong")
	}
}

func TestPublicFaultInjectionRecovers(t *testing.T) {
	g := GeneratePowerLaw(300, 5, 2.2, 9)
	opt := Options{
		Workers: 4, Model: Async, Technique: PartitionLocking, Seed: 9,
	}
	baseline, _, err := Run(g, SSSP(0), opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.CheckpointEvery = 2
	opt.CheckpointDir = t.TempDir()
	opt.Fault = &FaultPlan{
		Crashes: []CrashSpec{{Worker: 2, AtSuperstep: 3}},
		Seed:    9,
	}
	dists, res, err := Run(g, SSSP(0), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Get(metrics.Rollbacks); got != 1 {
		t.Errorf("Rollbacks = %d, want 1", got)
	}
	for v, d := range dists {
		if d != baseline[v] {
			t.Fatalf("vertex %d: recovered dist %v != baseline %v", v, d, baseline[v])
		}
	}
}

func TestPublicFaultPlanValidated(t *testing.T) {
	g := GeneratePowerLaw(50, 3, 2.2, 4)
	_, _, err := Run(g, SSSP(0), Options{
		Workers: 2, Model: Async,
		Fault: &FaultPlan{Crashes: []CrashSpec{{Worker: 5, AtSuperstep: 1}}},
	})
	if err == nil {
		t.Error("crash on worker 5 of a 2-worker cluster was accepted")
	}
}

func TestPublicPartitionerOption(t *testing.T) {
	g := GeneratePowerLaw(200, 4, 2.2, 7)
	want, _, err := Run(g, SSSP(0), Options{Workers: 4, Model: Async})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range PartitionerKinds() {
		dists, res, err := Run(g, SSSP(0), Options{
			Workers: 4, Model: Async, Partitioner: kind,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for v := range want {
			if dists[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %v, want %v", kind, v, dists[v], want[v])
			}
		}
		q := res.Partition
		if sum := q.PInternal + q.LocalBoundary + q.RemoteBoundary + q.MixedBoundary; sum != g.NumVertices() {
			t.Errorf("%s: class census sums to %d, want %d", kind, sum, g.NumVertices())
		}
	}
	if _, _, err := Run(g, SSSP(0), Options{Workers: 2, Partitioner: "metis"}); err == nil {
		t.Error("unknown partitioner name was accepted")
	}
}

func TestPublicDegreeRelabel(t *testing.T) {
	g := GeneratePowerLaw(200, 4, 2.2, 7)
	want, _, err := Run(g, SSSP(0), Options{Workers: 4, Model: Async})
	if err != nil {
		t.Fatal(err)
	}
	rg, rel := DegreeRelabel(g)
	got, _, err := Run(rg, SSSP(rel.NewID(0)), Options{
		Workers: 4, Model: Async, Partitioner: "ldg",
	})
	if err != nil {
		t.Fatal(err)
	}
	got = Unpermute(rel, got)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("relabeled run: dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	// The quality helper reports on any valid kind and rejects unknowns.
	if _, err := PartitionReport(g, "fennel", 8, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionReport(g, "metis", 8, 4, 1); err == nil {
		t.Error("PartitionReport accepted an unknown kind")
	}
}
