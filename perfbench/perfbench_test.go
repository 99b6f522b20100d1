package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drtm"
	"drtm/internal/cluster"
	"drtm/internal/smallbank"
	"drtm/internal/socialgraph"
	"drtm/internal/tatp"
	"drtm/internal/tpcc"
)

// TestWorkloadsTiny runs every workload at tiny scale, untraced and traced,
// and checks the report's shape: exactly the metrics BENCHMARK.json
// declares, with its units; every operation accounted for; the verdict
// consistent with the check. The check itself may fail on a multi-core host
// (the engine's known atomicity faults), which the report must carry rather
// than hide.
func TestWorkloadsTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		t.Fatal(err)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bs.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bs.PerLayer {
		layers[m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(sp, runConfig{seed: 3, seconds: 0.4, trace: trace, outDir: dir}, tinyScale)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if res.Attempted == 0 {
				t.Errorf("%s: no operations attempted", sp.name)
			}
			if res.Failed != 0 {
				t.Errorf("%s: %d operations failed: %v %v", sp.name, res.Failed, res.Failures, res.Messages)
			}
			if res.Correct != (res.Check == "ok") {
				t.Errorf("%s: correct=%v but check %q", sp.name, res.Correct, res.Check)
			}
			if !res.Correct {
				t.Logf("%s: %s", sp.name, res.Check)
			}
			want := e2e
			if trace {
				want = layers
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s (%s in BENCHMARK.json) missing or not finite: %+v",
						sp.name, trace, name, unit, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(want))
			}
			if trace {
				var cpu float64
				for _, b := range cpuBuckets {
					cpu += res.Metrics["cpu."+b+"_ns_per_txn"].Value
				}
				if cpu == 0 {
					t.Errorf("%s: the CPU profile attributed no samples", sp.name)
				}
				raw, err := os.ReadFile(filepath.Join(dir, sp.name+"-seed3.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct{ TraceEvents []chromeEvent }
				if err := json.Unmarshal(raw, &tr); err != nil {
					t.Fatalf("%s: trace file: %v", sp.name, err)
				}
				kinds := map[string]bool{}
				for _, e := range tr.TraceEvents {
					kinds[e.Cat] = true
				}
				for _, k := range []string{"setup", "op", "check", "tx", "phase"} {
					if !kinds[k] {
						t.Errorf("%s: trace has no %q events", sp.name, k)
					}
				}
			}
		}
	}
}

// serialRun sets a workload up at tiny scale and runs ops operations per
// client from one goroutine, so no two transactions overlap.
func serialRun(t *testing.T, sp *spec, ops int) *prepared {
	t.Helper()
	p, err := prepare(sp, 5, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.inst.DB().Close)
	start := p.setupAt[0]
	for i := 0; i < ops; i++ {
		for _, cl := range p.clients {
			cl.one(p.inst.DB(), start)
		}
	}
	for _, cl := range p.clients {
		if len(cl.fails) != 0 {
			t.Fatalf("%s: serial run failed operations: %v %v", sp.name, cl.fails, cl.msgs)
		}
	}
	return p
}

// TestChecksDetectCorruption proves each workload's correctness check can
// fail: after a serial run the check passes, and one write behind the
// transaction layer's back makes it report the damage.
func TestChecksDetectCorruption(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(t *testing.T, db *drtm.DB)
		want     string
	}{
		{"smallbank-repl", func(t *testing.T, db *drtm.DB) {
			// Money from nowhere: one checking balance grows by a direct
			// store write.
			chk := db.C.Node(0).Unordered(smallbank.TableChecking)
			v, ok := chk.Get(1)
			if !ok || !chk.Put(1, []uint64{v[0] + 7}) {
				t.Fatal("cannot rewrite account 1")
			}
		}, "total balance"},
		{"smallbank-repl", func(t *testing.T, db *drtm.DB) {
			// A backup that diverged: node 1's replica of cold account 2000
			// is rewritten behind the redo stream, total balance untouched.
			chk := db.C.Node(1).Unordered(cluster.ReplicaRegion(0, smallbank.TableChecking))
			v, ok := chk.Get(2000)
			if !ok || !chk.Put(2000, []uint64{v[0] + 7}) {
				t.Fatal("cannot rewrite the replica of account 2000")
			}
		}, "replica of account 2000"},
		{"tpcc-mix", func(t *testing.T, db *drtm.DB) {
			// An order id allocated with no order behind it.
			k := tpcc.DKey(1, 1)
			dist := db.C.Node(0).Unordered(tpcc.TableDistrict)
			v, ok := dist.Get(k)
			if !ok {
				t.Fatal("district 1/1 missing")
			}
			v[tpcc.DNextOID]++
			if !dist.Put(k, v) {
				t.Fatal("cannot rewrite district 1/1")
			}
		}, "w 1 d 1"},
		{"tatp-index", func(t *testing.T, db *drtm.DB) {
			// One index entry deleted: a live subscriber its index misses.
			sid := uint64(2) // node 0 owns even subscribers
			if _, ok := db.Get(tatp.TableSubscriber, sid); !ok {
				sid += 2
			}
			if !db.C.Node(0).Ordered(tatp.TableSubNbrIndex).Delete(tatp.SubNbr(sid)) {
				t.Fatalf("no index entry for subscriber %d", sid)
			}
		}, "index row"},
		{"social-scan", func(t *testing.T, db *drtm.DB) {
			// One directed edge dropped: 0->1 is a seeded ring edge unless
			// the run unfriended it, so drop the first live edge of 0.
			edges := db.C.Node(0).Ordered(socialgraph.TableEdges)
			for b := uint64(1); b < 64; b++ {
				if _, ok := db.Get(socialgraph.TableEdges, socialgraph.EdgeKey(0, b)); ok {
					if !edges.Delete(socialgraph.EdgeKey(0, b)) {
						t.Fatal("cannot delete edge")
					}
					return
				}
			}
			t.Fatal("person 0 has no friends")
		}, "reverse missing"},
	}
	for _, tc := range cases {
		p := serialRun(t, lookup(tc.workload), 40)
		if err := p.inst.check(); err != nil {
			t.Fatalf("%s: check fails on an uncorrupted serial run: %v", tc.workload, err)
		}
		tc.corrupt(t, p.inst.DB())
		err := p.inst.check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check after corruption = %v, want an error mentioning %q", tc.workload, err, tc.want)
		}
	}
}

// fakeOp returns a fixed outcome, or panics.
type fakeOp struct {
	err   error
	panic any
}

func (f fakeOp) next() (int, error) {
	if f.panic != nil {
		panic(f.panic)
	}
	return 0, f.err
}

// TestFailureClassification pins how the driver counts outcomes: budget
// exhaustion, other errors and escaping panics are failures by cause; a
// live check's violation completes but marks the run incorrect.
func TestFailureClassification(t *testing.T) {
	db := drtm.MustOpen(drtm.Options{Nodes: 1}, func(int, uint64) int { return 0 })
	defer db.Close()
	cl := &client{fails: map[string]int64{}, msgs: map[string]string{}}
	for _, f := range []fakeOp{
		{err: nil},
		{err: errors.Join(errors.New("tx: retry budget exhausted"), drtm.ErrRetry)},
		{err: errors.New("boom")},
		{panic: "kvs: key already exists"},
		{err: violation{errors.New("reverse missing")}},
	} {
		cl.c = f
		cl.one(db, time.Now())
	}
	if cl.attempted != 5 || cl.fails["retry_exhausted"] != 1 || cl.fails["error"] != 1 || cl.fails["panic"] != 1 {
		t.Fatalf("attempted=%d fails=%v", cl.attempted, cl.fails)
	}
	if cl.msgs["panic"] != "kvs: key already exists" {
		t.Errorf("panic message %q", cl.msgs["panic"])
	}
	if cl.violations != 1 || len(cl.recs) != 2 {
		t.Errorf("violations=%d completed=%d, want 1 and 2", cl.violations, len(cl.recs))
	}
}

// TestCompletedOpAllocatesNothing keeps the driver's own bookkeeping out of
// allocs_per_txn: recording a completed operation allocates nothing.
func TestCompletedOpAllocatesNothing(t *testing.T) {
	db := drtm.MustOpen(drtm.Options{Nodes: 1}, func(int, uint64) int { return 0 })
	defer db.Close()
	cl := &client{c: fakeOp{}, recs: make([]opRec, 0, 1000), fails: map[string]int64{}, msgs: map[string]string{}}
	start := time.Now()
	if n := testing.AllocsPerRun(500, func() { cl.one(db, start) }); n != 0 {
		t.Fatalf("%v allocations per completed operation, want 0", n)
	}
}

// TestQuartilesMatchPython pins stats to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := stats([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestCompareFlagsRegression runs compare mode over two synthetic result
// sets: a steady metric that worsened past its bound is a regression, one
// whose spread exceeds its bound is unresolved.
func TestCompareFlagsRegression(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"wall_tps","unit":"txn/s","better":"higher","bound":0.1},
		{"name":"model_p99_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(dir string, i int, tps, p99 float64) {
		r := resultFile{Workload: "w", Seed: int64(i), summary: summary{Metrics: map[string]metric{
			"wall_tps": {tps, "txn/s"}, "model_p99_us": {p99, "us"}}}}
		if err := writeJSON(filepath.Join(dir, "r"+string(rune('a'+i))+".json"), r); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for i := 0; i < 5; i++ {
		write(a, i, 1000+float64(i), 10+float64(i%2)*10)
		write(b, i, 800+float64(i), 10)
	}
	var out bytes.Buffer
	if code := compareMain([]string{"--bench", bench, a, b}, &out); code != 1 {
		t.Errorf("exit code %d, want 1 (regression)", code)
	}
	for _, want := range []string{"wall_tps", "REGRESSION", "model_p99_us", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
