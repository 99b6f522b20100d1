package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"drtm"
)

// traceKeep bounds what the Chrome trace file holds: the newest traceKeep
// transactions per worker (the program's trace-ring size) and the newest
// traceKeep benchmark operation spans per client, which keeps the file near
// ten megabytes however fast the workload runs.
const traceKeep = 1 << 13

// tracer owns the traced phase's CPU profile.
type tracer struct {
	db   *drtm.DB
	prof bytes.Buffer
}

// startTrace turns on the program's per-transaction trace rings and the
// process CPU profile.
func startTrace(db *drtm.DB) (*tracer, error) {
	t := &tracer{db: db}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	db.EnableTracing(traceKeep)
	return t, nil
}

// stopProfile ends the CPU profile and attributes its samples to layers.
func (t *tracer) stopProfile() (map[string]int64, error) {
	pprof.StopCPUProfile()
	if t.prof.Len() == 0 {
		return map[string]int64{}, nil
	}
	return attributeProfile(t.prof.Bytes())
}

// chromeEvent is one Chrome trace-event record (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidBench = 1 // the benchmark's spans, wall clock
	pidModel = 2 // the program's trace rings, modeled clock
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// write saves the CPU profile as <stem>.cpu.pprof and the Chrome trace as
// <stem>.trace.json: the benchmark's wall-clock spans (each set-up, each
// traced operation, the check) and the program's per-transaction records
// on the modeled clock, split into lock / HTM / commit phases with their
// attempts and abort cause.
func (t *tracer) write(stem string, sp *spec, p *prepared, ph *phase, checkStart time.Time, checkWall time.Duration) error {
	if err := os.WriteFile(stem+".cpu.pprof", t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	origin := p.setupAt[0]
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidBench, Args: map[string]any{"name": "perfbench spans (wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: pidModel, Args: map[string]any{"name": "drtm transactions (modeled clock)"}},
	}
	for i, at := range p.setupAt {
		evs = append(evs, chromeEvent{Name: "setup", Cat: "setup", Ph: "X", Ts: us(at.Sub(origin)),
			Dur: p.setupS[i] * 1e6, Pid: pidBench, Tid: 0, Args: map[string]any{"repeat": i}})
	}
	perClient := map[uint8]int{}
	for i := len(ph.recs) - 1; i >= 0; i-- {
		r := ph.recs[i]
		if perClient[r.client]++; perClient[r.client] > traceKeep {
			continue
		}
		evs = append(evs, chromeEvent{Name: sp.ops[r.op], Cat: "op", Ph: "X",
			Ts:  us(ph.start.Sub(origin) + time.Duration(r.start)),
			Dur: us(time.Duration(r.wall)), Pid: pidBench, Tid: 1 + int(r.client),
			Args: map[string]any{"model_us": float64(r.model) / 1e3}})
	}
	evs = append(evs, chromeEvent{Name: "check", Cat: "check", Ph: "X", Ts: us(checkStart.Sub(origin)),
		Dur: us(checkWall), Pid: pidBench, Tid: 0})
	for _, e := range t.db.DrainTrace() {
		tid := int(e.Node)*workersPerNode + int(e.Worker)
		switch e.Kind {
		case drtm.TraceTx:
			start := float64(e.StartNS) / 1e3
			evs = append(evs, chromeEvent{Name: "tx", Cat: "tx", Ph: "X", Ts: start, Dur: float64(e.TotalNS) / 1e3,
				Pid: pidModel, Tid: tid, Args: map[string]any{"txid": e.TxID, "attempts": e.Attempts,
					"outcome": e.Outcome.String(), "abort": e.Abort.String()}})
			for _, part := range []struct {
				name string
				ns   int64
			}{{"lock", e.LockNS}, {"htm", e.HTMNS}, {"commit", e.CommitNS}} {
				if part.ns > 0 {
					evs = append(evs, chromeEvent{Name: part.name, Cat: "phase", Ph: "X", Ts: start,
						Dur: float64(part.ns) / 1e3, Pid: pidModel, Tid: tid})
					start += float64(part.ns) / 1e3
				}
			}
		default:
			evs = append(evs, chromeEvent{Name: e.Kind.String(), Cat: "event", Ph: "i", S: "t",
				Ts: float64(e.StartNS) / 1e3, Pid: pidModel, Tid: tid,
				Args: map[string]any{"key": e.TxID, "hot": e.Hot}})
		}
	}
	t.db.DisableTracing()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".trace.json", b, 0o644)
}
