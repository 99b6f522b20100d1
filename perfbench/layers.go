package main

import (
	"runtime"
	"strings"

	"drtm/internal/obs"
)

// cpuBuckets are the CPU-profile attribution buckets reported as
// cpu.<bucket>_ns_per_txn: the module's layer packages, "workload" for the
// benchmark workload packages (transaction bodies and their inputs), "gc"
// for the Go collector, and "other" for everything else (scheduler, the
// benchmark's own loop).
var cpuBuckets = []string{"tx", "htm", "rdma", "kvs", "btree", "memory", "clock", "cluster", "nvram",
	"obs", "vtime", "drtm", "workload", "gc", "other"}

// perLayerNames lists every per-layer metric in BENCHMARK.json order; every
// workload reports all of them (a layer a workload does not touch reads 0).
func perLayerNames() []string {
	names := []string{
		"tx.attempts_per_commit", "tx.fallback_per_commit", "tx.htm_region_model_us",
		"tx.lock_remote_model_us", "tx.commit_remotes_model_us", "ro.attempts_per_commit",
		"htm.abort.locked_per_commit", "htm.abort.conflict_per_commit", "htm.abort.capacity_per_commit",
		"htm.abort.lease_per_commit",
		"rdma.read_per_txn", "rdma.cas_per_txn", "rdma.write_per_txn", "rdma.msg_per_txn",
		"rdma.batch_per_txn", "rdma.ops_per_batch",
		"kvs.loc_cache_hit_rate", "mvcc.retire_per_commit",
		"lease.grant_per_txn", "lease.expire_per_txn", "lock.remote_conflict_per_txn",
		"spec.read_per_txn", "spec.validate_fail_per_read", "adapt.spec_share",
		"scan.rows_per_scan", "scan.model_us", "scan.validate_fail_per_scan",
		"mvcc.reads_per_ro", "mvcc.fallback_per_ro", "mvcc.ro_model_us",
		"nvram.log_records_per_txn", "repl.log_appends_per_txn", "repl.backup_bytes_per_txn",
		"wait.idle_frac", "trace.wall_tps_untraced", "trace.wall_tps_traced", "trace.overhead_frac",
	}
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b+"_ns_per_txn")
	}
	for _, sp := range workloads {
		for _, op := range sp.ops {
			names = append(names, "op."+op+".model_mean_us", "op."+op+".wall_p50_us")
		}
	}
	return names
}

// layerUnit gives each per-layer metric's unit by its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns_per_txn"):
		return "ns"
	case strings.HasSuffix(name, "_tps_untraced"), strings.HasSuffix(name, "_tps_traced"):
		return "txn/s"
	case strings.HasSuffix(name, "_bytes_per_txn"):
		return "B"
	case strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_frac"):
		return "frac"
	default:
		return "count"
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(h obs.HistSnapshot) float64 { return ratio(h.Sum, h.Count) }

func meanUS(h obs.HistSnapshot) float64 { return mean(h) / 1e3 }

// perLayer computes the per-layer metrics of a traced phase: counter and
// modeled-phase deltas from the program's obs registry, CPU attribution
// from the profile, and per-operation latency from the benchmark's spans.
// base is the untraced phase run just before, for the tracing overhead.
func perLayer(sp *spec, ph, base *phase, prof map[string]int64) map[string]metric {
	s := ph.stats
	c := s.Counter
	commits := c(obs.EvTxCommit)
	roCommits := c(obs.EvROCommit)
	txns := commits + roCommits
	specReads := c(obs.EvSpecRead)
	scans := c(obs.EvScan)
	adapt := c(obs.EvAdaptSpec) + c(obs.EvAdaptLease)
	v := map[string]float64{
		"tx.attempts_per_commit":        ratio(commits+c(obs.EvTxRetry), commits),
		"tx.fallback_per_commit":        ratio(c(obs.EvFallback), commits),
		"tx.htm_region_model_us":        meanUS(s.Phases[obs.PhaseHTM]),
		"tx.lock_remote_model_us":       meanUS(s.Phases[obs.PhaseLockRemote]),
		"tx.commit_remotes_model_us":    meanUS(s.Phases[obs.PhaseCommit]),
		"ro.attempts_per_commit":        ratio(roCommits+c(obs.EvRORetry), roCommits),
		"htm.abort.locked_per_commit":   ratio(c(obs.EvHTMLockedAbort), commits),
		"htm.abort.conflict_per_commit": ratio(c(obs.EvHTMConflictAbort), commits),
		"htm.abort.capacity_per_commit": ratio(c(obs.EvHTMCapacityAbort), commits),
		"htm.abort.lease_per_commit":    ratio(c(obs.EvHTMLeaseAbort), commits),
		"rdma.read_per_txn":             ratio(c(obs.EvRDMARead), txns),
		"rdma.cas_per_txn":              ratio(c(obs.EvRDMACAS), txns),
		"rdma.write_per_txn":            ratio(c(obs.EvRDMAWrite), txns),
		"rdma.msg_per_txn":              ratio(c(obs.EvVerbsMsg), txns),
		"rdma.batch_per_txn":            ratio(c(obs.EvRDMABatch), txns),
		"rdma.ops_per_batch":            mean(s.Phases[obs.PhaseBatchOps]),
		"kvs.loc_cache_hit_rate":        ratio(ph.cacheHits, ph.cacheHits+ph.cacheMiss),
		"mvcc.retire_per_commit":        ratio(c(obs.EvChainRetire), commits),
		"lease.grant_per_txn":           ratio(c(obs.EvLeaseGrant), txns),
		"lease.expire_per_txn":          ratio(c(obs.EvLeaseExpire), txns),
		"lock.remote_conflict_per_txn":  ratio(c(obs.EvRemoteLockConflict), txns),
		"spec.read_per_txn":             ratio(specReads, txns),
		"spec.validate_fail_per_read":   ratio(c(obs.EvSpecValidateFail), specReads),
		"adapt.spec_share":              ratio(c(obs.EvAdaptSpec), adapt),
		"scan.rows_per_scan":            ratio(c(obs.EvScanRow), scans),
		"scan.model_us":                 meanUS(s.Phases[obs.PhaseScan]),
		"scan.validate_fail_per_scan":   ratio(c(obs.EvScanValidateFail), scans),
		"mvcc.reads_per_ro":             ratio(c(obs.EvMVCCRead), roCommits),
		"mvcc.fallback_per_ro":          ratio(c(obs.EvMVCCFallback), roCommits),
		"mvcc.ro_model_us":              meanUS(s.Phases[obs.PhaseMVCC]),
		"nvram.log_records_per_txn":     ratio(c(obs.EvLogRecord), txns),
		"repl.log_appends_per_txn":      ratio(c(obs.EvLogAppend), txns),
		"repl.backup_bytes_per_txn":     ratio(c(obs.EvBackupBytes), txns),
		"wait.idle_frac":                1 - ph.cpu.Seconds()/(ph.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"trace.wall_tps_untraced":       float64(base.commits()) / base.wall.Seconds(),
		"trace.wall_tps_traced":         float64(txns) / ph.wall.Seconds(),
	}
	v["trace.overhead_frac"] = 1 - v["trace.wall_tps_traced"]/v["trace.wall_tps_untraced"]
	for _, b := range cpuBuckets {
		v["cpu."+b+"_ns_per_txn"] = ratio(prof[b], txns)
	}
	model := make([][]int64, len(sp.ops))
	wall := make([][]float64, len(sp.ops))
	for _, r := range ph.recs {
		model[r.op] = append(model[r.op], r.model)
		wall[r.op] = append(wall[r.op], float64(r.wall))
	}
	for i, op := range sp.ops {
		v["op."+op+".model_mean_us"] = meanOf(model[i]) / 1e3
		v["op."+op+".wall_p50_us"] = median(wall[i]) / 1e3
	}
	out := map[string]metric{}
	for _, name := range perLayerNames() {
		out[name] = metric{v[name], layerUnit(name)}
	}
	return out
}
