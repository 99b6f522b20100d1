package main

import (
	"errors"
	"fmt"
	"math/rand"

	"drtm"
	"drtm/internal/socialgraph"
)

// social-scan: the social-graph mix (35% befriend, 25% unfriend, 40% a live
// read-only snapshot check) over 64 people at about 37 friends each. The
// adaptive router sizes an RO scan by the key span it requests, and an
// adjacency scan spans 2^32 keys, so every check takes the MVCC
// version-chain arm; the density sets how much work that arm does: about 37
// rows per scan, each resolved against its version chain while writers
// retire versions into the chains.

var socialOps = []string{"befriend", "unfriend", "check_snapshot"}

// socialDensity is the share of person pairs that are friends: the mix's
// own equilibrium, 0.35/(0.35+0.25), so the graph neither fills nor drains
// during a run.
const socialDensity = 0.35 / (0.35 + 0.25)

type socialInst struct {
	db *drtm.DB
	w  *socialgraph.Workload
}

func socialConfig(sc scale) socialgraph.Config {
	cfg := socialgraph.DefaultConfig(nodes)
	cfg.People = 64 // ~37 friends, so ~37 chain resolutions per check
	if sc == tinyScale {
		cfg.People = 12
	}
	return cfg
}

// setupSocial seeds the package's friendship ring, then befriends a
// seed-chosen share of the remaining pairs up to the equilibrium density.
func setupSocial(sc scale, seed int64) (instance, error) {
	cfg := socialConfig(sc)
	db, err := drtm.Open(drtm.Options{Nodes: nodes, WorkersPerNode: workersPerNode}, cfg.Partitioner())
	if err != nil {
		return nil, err
	}
	w, err := socialgraph.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := cfg.People
	stamp := uint64(1 << 20)
	for a := 0; a < p; a++ {
		for b := a + 2; b < p; b++ {
			if (a == 0 && b == p-1) || rng.Float64() >= socialDensity {
				continue // ring edge, or not a friendship
			}
			stamp++
			for _, e := range [2][2]uint64{{uint64(a), uint64(b)}, {uint64(b), uint64(a)}} {
				if err := db.Load(socialgraph.TableEdges, socialgraph.EdgeKey(e[0], e[1]), []uint64{stamp, e[1]}); err != nil {
					db.Close()
					return nil, fmt.Errorf("socialgraph: load edge %d->%d: %w", e[0], e[1], err)
				}
			}
		}
	}
	return &socialInst{db: db, w: w}, nil
}

func (in *socialInst) DB() *drtm.DB { return in.db }

func (in *socialInst) newClient(i int, e *drtm.Executor, seed int64) opClient {
	return &socialClient{c: in.w.NewClient(e, seed), e: e, rng: rand.New(rand.NewSource(seed)),
		people: in.w.Cfg.People}
}

// check: every live edge has its reverse with the same pair stamp.
func (in *socialInst) check() error {
	return in.w.Audit()
}

type socialClient struct {
	c      *socialgraph.Client
	e      *drtm.Executor
	rng    *rand.Rand
	people int
}

func (c *socialClient) next() (int, error) {
	a := uint64(c.rng.Intn(c.people))
	b := uint64(c.rng.Intn(c.people - 1))
	if b >= a {
		b++
	}
	switch r := c.rng.Intn(100); {
	case r < 35:
		return 0, c.c.Befriend(a, b) // an existing friendship is a completed no-op
	case r < 60:
		return 1, c.c.Unfriend(a, b)
	default:
		return 2, c.checkSnapshot(a)
	}
}

// checkSnapshot is the live symmetry check: one RO transaction scans a's
// adjacency list and reads the reverse of every edge found; all of it
// confirms as one snapshot, so a missing reverse or a stamp mismatch is a
// half-applied friendship leaking into a reader. Unlike the package's
// CheckSnapshotRO it returns an exhausted retry budget as an error, so the
// driver counts it as a failed operation.
func (c *socialClient) checkSnapshot(a uint64) error {
	var viol error
	err := c.e.ExecRO(func(ro *drtm.RO) error {
		viol = nil
		rows, err := ro.Scan(socialgraph.TableEdges, socialgraph.EdgeKey(a, 0), socialgraph.EdgeKey(a, 0xFFFFFFFF), 0)
		if err != nil {
			return err
		}
		for _, r := range rows {
			b, stamp := r.Val[1], r.Val[0]
			rev, err := ro.Read(socialgraph.TableEdges, socialgraph.EdgeKey(b, a))
			if errors.Is(err, drtm.ErrNotFound) {
				viol = fmt.Errorf("socialgraph: edge %d->%d live (stamp %d) but reverse missing", a, b, stamp)
				return nil
			}
			if err != nil {
				return err
			}
			if rev[0] != stamp {
				viol = fmt.Errorf("socialgraph: pair %d<->%d stamp mismatch: %d vs %d", a, b, stamp, rev[0])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if viol != nil {
		return violation{viol}
	}
	return nil
}
