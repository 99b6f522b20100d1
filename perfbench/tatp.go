package main

import (
	"math/rand"

	"drtm"
	"drtm/internal/tatp"
)

// tatp-index: the TATP 8-op mix over subscribers spread across both nodes
// (s_id mod 2), so about half the accesses are remote. Covers the ordered
// store, secondary-index maintenance, read-only point reads, narrow RO range
// scans, and inserts/deletes shipped as SEND/RECV verbs. Durability off.

var tatpOps = []string{"get_subscriber", "get_new_destination", "update_location", "toggle_facility",
	"insert_call_fwd", "delete_call_fwd", "delete_subscriber", "insert_subscriber"}

type tatpInst struct {
	db *drtm.DB
	w  *tatp.Workload
}

func tatpConfig(sc scale) tatp.Config {
	cfg := tatp.DefaultConfig(nodes)
	cfg.Subscribers = 20_000
	if sc == tinyScale {
		cfg.Subscribers = 200
	}
	return cfg
}

func setupTATP(sc scale, seed int64) (instance, error) {
	cfg := tatpConfig(sc)
	db, err := drtm.Open(drtm.Options{Nodes: nodes, WorkersPerNode: workersPerNode}, cfg.Partitioner())
	if err != nil {
		return nil, err
	}
	w, err := tatp.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &tatpInst{db: db, w: w}, nil
}

func (in *tatpInst) DB() *drtm.DB { return in.db }

func (in *tatpInst) newClient(i int, e *drtm.Executor, seed int64) opClient {
	return &tatpClient{c: in.w.NewClient(e, seed), rng: rand.New(rand.NewSource(seed)), subs: in.w.Cfg.Subscribers}
}

// check: facility rows and sf_mask agree both ways, and the sub_nbr index
// rebuilt from the base rows equals the stored index.
func (in *tatpInst) check() error {
	return in.w.Audit()
}

type tatpClient struct {
	c    *tatp.Client
	rng  *rand.Rand
	subs int
}

// next draws from the mix 30/15/15/12/10/8/5/5. The client methods treat
// TATP's lifecycle races (ErrNotFound on a deleted subscriber, ErrExists on
// a live row) as completed no-ops.
func (c *tatpClient) next() (int, error) {
	sid := uint64(c.rng.Intn(c.subs)) + 1
	sf := 1 + c.rng.Intn(tatp.NumSFTypes)
	switch r := c.rng.Intn(100); {
	case r < 30:
		return 0, c.c.GetSubscriberData(sid)
	case r < 45:
		return 1, c.c.GetNewDestination(sid, sf)
	case r < 60:
		return 2, c.c.UpdateLocation(tatp.SubNbr(sid), uint64(c.rng.Intn(1<<16)))
	case r < 72:
		return 3, c.c.ToggleSpecialFacility(sid, sf)
	case r < 82:
		return 4, c.c.InsertCallForwarding(sid, sf, c.rng.Intn(24))
	case r < 90:
		return 5, c.c.DeleteCallForwarding(sid, sf, c.rng.Intn(24))
	case r < 95:
		return 6, c.c.DeleteSubscriber(sid)
	default:
		return 7, c.c.InsertSubscriber(sid, (uint64(c.rng.Intn(15))+1)<<1)
	}
}
