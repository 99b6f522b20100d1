package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"drtm"
	"drtm/internal/obs"
)

// Every workload runs 2 logical nodes with 1 client worker each: the paper
// binds one warehouse to one worker, and more client goroutines than cores
// would measure the Go scheduler's time slicing (and let one core mask the
// races real parallelism exposes) instead of the protocol. See README.md.
const (
	nodes          = 2
	workersPerNode = 1
	clientsTotal   = nodes * workersPerNode
)

// scale selects population sizes: fullScale for measurement, tinyScale for
// the benchmark's own tests.
type scale int

const (
	fullScale scale = iota
	tinyScale
)

// spec describes one workload.
type spec struct {
	name string
	ops  []string // operation types, indexed by the op an opClient returns
	// setup opens the database through drtm.Open and populates it from seed.
	setup func(sc scale, seed int64) (instance, error)
}

// instance is one populated database of a workload.
type instance interface {
	DB() *drtm.DB
	// newClient binds client i to executor e; inputs derive from seed.
	newClient(i int, e *drtm.Executor, seed int64) opClient
	// check verifies the quiesced database against values computed apart
	// from the program (the clients' own tallies, configuration totals,
	// rebuilt indexes).
	check() error
}

// opClient issues one workload operation per call, in a closed loop.
type opClient interface {
	next() (op int, err error)
}

// violation marks an operation that completed but observed an invariant
// violation (a live read-only check): the run is reported incorrect.
type violation struct{ error }

var failureCauses = []string{"retry_exhausted", "error", "panic"}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// A full-scale run sets its database up (opens and populates it) at least
// minSetups times, and keeps repeating (up to maxSetups) until the set-ups
// took setupBudget in total, so a set-up of milliseconds still yields a
// steady median. The reported setup_s is the median; the last copy is
// measured.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// moreSetups reports whether prepare sets the database up again after n
// set-ups that took spent in total.
func moreSetups(sc scale, n int, spent time.Duration) bool {
	switch {
	case n == 0:
		return true
	case sc == tinyScale || n >= maxSetups:
		return false
	}
	return n < minSetups || spent < setupBudget
}

// warmOps is the fixed number of operations each client runs before timing,
// so caches, heat tables and version chains are populated. The warm-up is
// not part of setup_s: its wall time is mostly lease expiry and backoff.
func warmOps(sc scale) int {
	if sc == tinyScale {
		return 20
	}
	return 300
}

// The measured copy is warmed further, gcWarmOps operations per client at a
// time, until the Go heap has finished a collection cycle (at most
// gcWarmMax). The first cycle after set-up grows the heap to its goal into
// pages the process has not touched yet, and the page faults raise CPU per
// transaction for a few seconds: on tpcc-mix on the reference machine
// (README.md), split into ten 1 s windows, windows 2-4 read 190-220 µs per
// transaction and the others 150-175.
const (
	gcWarmOps = 200
	gcWarmMax = 15 * time.Second
)

// opRec is one timed operation: its client and type, modeled and wall
// latency (ns), and wall start relative to the phase start (ns).
type opRec struct {
	client, op         uint8
	model, wall, start int64
}

// client is the driver's per-goroutine state around one opClient.
type client struct {
	id           int
	node, worker int
	c            opClient
	recs         []opRec
	attempted    int64
	fails        map[string]int64
	msgs         map[string]string
	violations   int64
	violationMsg string
}

func (cl *client) fail(cause, msg string) {
	cl.fails[cause]++
	if _, ok := cl.msgs[cause]; !ok {
		cl.msgs[cause] = msg
	}
}

// escapedPanic is a panic that escaped the program during one operation.
type escapedPanic struct{ v any }

func (p escapedPanic) Error() string { return fmt.Sprint(p.v) }

// call runs one operation, catching a panic that escapes the program at the
// call boundary so it is counted and reported instead of ending the run.
func (cl *client) call() (op int, err error) {
	defer func() {
		if r := recover(); r != nil {
			op, err = -1, escapedPanic{r}
		}
	}()
	return cl.c.next()
}

// one runs and classifies one operation, recording a completed one.
func (cl *client) one(db *drtm.DB, phaseStart time.Time) {
	cl.attempted++
	v0 := db.WorkerVirtualTime(cl.node, cl.worker)
	t0 := time.Now()
	op, err := cl.call()
	wall := time.Since(t0)
	model := db.WorkerVirtualTime(cl.node, cl.worker) - v0
	if err != nil {
		// Classified only on error: the errors.As targets escape to the heap,
		// and a completed operation must not add to allocs_per_txn.
		var p escapedPanic
		var viol violation
		switch {
		case errors.As(err, &p):
			cl.fail("panic", p.Error())
			return
		case errors.As(err, &viol):
			cl.violations++
			if cl.violationMsg == "" {
				cl.violationMsg = viol.Error()
			}
		case errors.Is(err, drtm.ErrRetry):
			cl.fail("retry_exhausted", err.Error())
			return
		default:
			cl.fail("error", err.Error())
			return
		}
	}
	cl.recs = append(cl.recs, opRec{client: uint8(cl.id), op: uint8(op), model: int64(model), wall: int64(wall),
		start: int64(t0.Sub(phaseStart))})
}

// phase is what one timed stretch of the closed loop measured, in total and
// per window.
type phase struct {
	start     time.Time
	wall      time.Duration
	model     time.Duration // longest worker virtual-clock advance
	stats     obs.Snapshot  // counter and histogram deltas
	cacheHits int64
	cacheMiss int64
	cpu       time.Duration // process user+sys
	mallocs   uint64
	recs      []opRec
	windows   []*phase // equal wall-clock slices of the phase, without recs
}

// commits is the committed read-write plus read-only transactions.
func (p *phase) commits() int64 {
	return p.stats.Counter(obs.EvTxCommit) + p.stats.Counter(obs.EvROCommit)
}

// windowsPerPhase splits a timed phase so each end-to-end rate is the
// median over its windows: a stall from outside the process lands in one
// window instead of moving the run's figure.
const windowsPerPhase = 5

// point is the cumulative state sampled at a window boundary.
type point struct {
	at           time.Time
	stats        obs.Snapshot
	cpu          time.Duration
	mallocs      uint64
	vclock       []time.Duration
	hits, misses int64
}

func sample(db *drtm.DB, clients []*client) point {
	pt := point{at: time.Now(), stats: db.C.Obs.Snapshot(), cpu: processCPU(), mallocs: mallocs()}
	pt.hits, pt.misses, _ = db.LocationCacheStats()
	for _, cl := range clients {
		pt.vclock = append(pt.vclock, db.WorkerVirtualTime(cl.node, cl.worker))
	}
	return pt
}

// between measures the interval from a to b.
func between(a, b point) *phase {
	p := &phase{start: a.at, wall: b.at.Sub(a.at), stats: b.stats.Delta(a.stats), cpu: b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs, cacheHits: b.hits - a.hits, cacheMiss: b.misses - a.misses}
	for i := range a.vclock {
		if dv := b.vclock[i] - a.vclock[i]; dv > p.model {
			p.model = dv
		}
	}
	return p
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// drive runs every client in its own goroutine until the deadline passes
// (or, with ops > 0, for exactly ops operations each) and measures the
// interval. Each client sends its next operation when the last one returns.
func drive(db *drtm.DB, clients []*client, d time.Duration, ops int) *phase {
	for _, cl := range clients {
		cl.recs = cl.recs[:0]
	}
	pts := []point{sample(db, clients)}
	start := pts[0].at
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for n := 0; ops <= 0 || n < ops; n++ {
				if ops <= 0 && !time.Now().Before(deadline) {
					return
				}
				cl.one(db, start)
			}
		}(cl)
	}
	if ops <= 0 {
		for i := 1; i < windowsPerPhase; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / windowsPerPhase)))
			pts = append(pts, sample(db, clients))
		}
	}
	wg.Wait()
	pts = append(pts, sample(db, clients))
	p := between(pts[0], pts[len(pts)-1])
	for i := 1; i < len(pts); i++ {
		p.windows = append(p.windows, between(pts[i-1], pts[i]))
	}
	for _, cl := range clients {
		p.recs = append(p.recs, cl.recs...)
	}
	return p
}

// prepared is a set-up database with its bound clients.
type prepared struct {
	inst    instance
	clients []*client
	setupAt []time.Time
	setupS  []float64
	heapMB  float64
}

// prepare sets the workload up (repeatedly at full scale, closing all but
// the last database) and warms each copy with a fixed op count. Every copy
// is warmed, not only the measured one: in alternating runs of tpcc-mix on
// the reference machine, set-ups that followed each other without a
// warm-up between them read about 10% slower.
func prepare(sp *spec, seed int64, sc scale) (*prepared, error) {
	p := &prepared{}
	var spent time.Duration
	for n := 0; moreSetups(sc, n, spent); n++ {
		if p.inst != nil {
			p.inst.DB().Close()
			p.inst, p.clients = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := sp.setup(sc, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		clients := make([]*client, 0, clientsTotal)
		for n := 0; n < nodes; n++ {
			for w := 0; w < workersPerNode; w++ {
				i := len(clients)
				clients = append(clients, &client{
					id: i, node: n, worker: w,
					c:     inst.newClient(i, inst.DB().Executor(n, w), seed*1_000_003+int64(i)*7919+1),
					fails: map[string]int64{}, msgs: map[string]string{},
				})
			}
		}
		took := time.Since(t0)
		drive(inst.DB(), clients, 0, warmOps(sc))
		p.setupAt = append(p.setupAt, t0)
		p.setupS = append(p.setupS, took.Seconds())
		spent += took
		p.inst, p.clients = inst, clients
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6
	if sc == fullScale {
		for gcs, end := ms.NumGC, time.Now().Add(gcWarmMax); ms.NumGC == gcs && time.Now().Before(end); {
			drive(p.inst.DB(), p.clients, 0, gcWarmOps)
			runtime.ReadMemStats(&ms)
		}
	}
	for _, cl := range p.clients {
		cl.recs = make([]opRec, 0, 1<<16)
	}
	return p, nil
}

// run executes one workload invocation and assembles its result.
func run(sp *spec, rc runConfig, sc scale) (*resultFile, error) {
	p, err := prepare(sp, rc.seed, sc)
	if err != nil {
		return nil, err
	}
	db := p.inst.DB()
	defer db.Close()
	res := &resultFile{Workload: sp.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Failures: map[string]int64{}, Messages: map[string]string{}}
	d := time.Duration(rc.seconds * float64(time.Second))
	var tr *tracer
	var traced *phase
	if !rc.trace {
		ph := drive(db, p.clients, d, 0)
		res.Metrics = endToEnd(ph, p)
	} else {
		// The untraced first half gives the baseline for the tracing
		// overhead; per-layer metrics come from the traced second half.
		base := drive(db, p.clients, d/2, 0)
		if tr, err = startTrace(db); err != nil {
			return nil, err
		}
		traced = drive(db, p.clients, d/2, 0)
		prof, err := tr.stopProfile()
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(sp, traced, base, prof)
	}
	checkStart := time.Now()
	checkErr := p.inst.check()
	checkWall := time.Since(checkStart)
	var violations int64
	for _, cl := range p.clients {
		res.Attempted += cl.attempted
		for c, n := range cl.fails {
			res.Failures[c] += n
			res.Failed += n
		}
		for c, m := range cl.msgs {
			if _, ok := res.Messages[c]; !ok {
				res.Messages[c] = m
			}
		}
		violations += cl.violations
		if cl.violationMsg != "" && checkErr == nil {
			checkErr = fmt.Errorf("%d live read-only check(s) saw a violation, first: %s", cl.violations, cl.violationMsg)
		}
	}
	res.Correct = checkErr == nil
	res.Check = "ok"
	if checkErr != nil {
		res.Check = "FAILED: " + checkErr.Error()
	}
	if tr != nil {
		stem := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d", sp.name, rc.seed))
		if err := tr.write(stem, sp, p, traced, checkStart, checkWall); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd computes the metrics a user of the system sees. Rates are
// medians over the phase's windows. Latency is per client operation on the
// modeled clock, retries included: its mean, and the mean of the slowest 5%
// (each code path costs a fixed modeled time, so percentiles are step values
// that read the same on every run and hide changes smaller than a step; the
// slowest 1% moved with the host's load on tpcc-mix, see README.md).
// Wall-clock throughput is a per-layer metric only (trace.wall_tps_*): on
// tpcc-mix it is set by real-time lease expiry and backoff sleeps.
func endToEnd(ph *phase, p *prepared) map[string]metric {
	per := func(f func(w *phase) float64) float64 {
		var v []float64
		for _, w := range ph.windows {
			v = append(v, f(w))
		}
		return median(v)
	}
	model := make([]int64, len(ph.recs))
	for i, r := range ph.recs {
		model[i] = r.model
	}
	sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
	return map[string]metric{
		"setup_s":        {median(p.setupS), "s"},
		"model_tps":      {per(func(w *phase) float64 { return float64(w.commits()) / w.model.Seconds() }), "txn/s"},
		"model_mean_us":  {meanOf(model) / 1e3, "us"},
		"model_tail_us":  {meanOf(model[len(model)-(len(model)+19)/20:]) / 1e3, "us"},
		"cpu_us_per_txn": {per(func(w *phase) float64 { return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.commits()) }), "us"},
		"allocs_per_txn": {per(func(w *phase) float64 { return float64(w.mallocs) / float64(w.commits()) }), "count"},
		"heap_mb":        {p.heapMB, "MB"},
	}
}

func meanOf(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// median is the middle of v (stats' median), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := stats(v)
	return m
}
