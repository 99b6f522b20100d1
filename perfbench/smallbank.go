package main

import (
	"fmt"
	"math/rand"

	"drtm"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/nvram"
	"drtm/internal/smallbank"
)

// smallbank-repl: SmallBank with hot accounts and 10% distributed
// SendPayment/Amalgamate, durable (NVRAM logs) and replicated to one backup.
// Tiny transactions, so the cost sits in remote lock CAS, doorbell batches,
// the location cache, NVRAM log records and redo log-appends to the backup,
// not in HTM.

// The smallbank package's TxnType order.
var smallbankOps = []string{"send_payment", "balance", "deposit_checking", "withdraw_checking",
	"transact_savings", "amalgamate"}

type sbInst struct {
	db      *drtm.DB
	w       *smallbank.Workload
	cfg     smallbank.Config
	clients []*sbClient
}

func smallbankConfig(sc scale) smallbank.Config {
	cfg := smallbank.DefaultConfig(nodes)
	cfg.DistProb = 0.10
	if sc == tinyScale {
		cfg.AccountsPerNode = 2_000
		cfg.HotAccounts = 20
	}
	return cfg
}

func setupSmallBank(sc scale, seed int64) (instance, error) {
	cfg := smallbankConfig(sc)
	db, err := drtm.Open(drtm.Options{Nodes: nodes, WorkersPerNode: workersPerNode,
		Durability: true, ReplicationFactor: 1}, cfg.Partitioner())
	if err != nil {
		return nil, err
	}
	w, err := smallbank.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &sbInst{db: db, w: w, cfg: cfg}, nil
}

func (in *sbInst) DB() *drtm.DB { return in.db }

func (in *sbInst) newClient(i int, e *drtm.Executor, seed int64) opClient {
	c := &sbClient{c: in.w.NewClient(e, seed), e: e, cfg: in.cfg, rng: rand.New(rand.NewSource(seed)),
		ckptBytes: in.db.C.Config().LogWords * 8 / 2}
	in.clients = append(in.clients, c)
	return c
}

// sbClient picks the accounts itself so that WithdrawChecking can run
// through its own transaction body: smallbank.Client.WithdrawChecking sets
// the amount it tallies only when an attempt finds the balance short and
// never resets it, so a retried attempt that then finds enough money tallies
// the stale amount. The other five types call the package's transactions.
type sbClient struct {
	c   *smallbank.Client
	e   *drtm.Executor
	cfg smallbank.Config
	rng *rand.Rand
	// withdrawn is the money WithdrawChecking took out, for the check.
	withdrawn int64
	// ckptBytes is the write-ahead log fill at which the client checkpoints
	// its worker's NVRAM logs.
	ckptBytes int
}

func (c *sbClient) next() (int, error) {
	c.checkpointLogs()
	t := c.c.PickType()
	var err error
	switch t {
	case smallbank.SendPayment:
		a := c.pickLocal()
		err = c.c.SendPayment(a, c.pickPartner(a), uint64(c.rng.Intn(50)+1))
	case smallbank.Balance:
		_, err = c.c.Balance(c.pickLocal())
	case smallbank.DepositChecking:
		err = c.c.DepositChecking(c.pickLocal(), uint64(c.rng.Intn(100)+1))
	case smallbank.WithdrawChecking:
		err = c.withdrawChecking(c.pickLocal(), uint64(c.rng.Intn(50)+1))
	case smallbank.TransactSavings:
		err = c.c.TransactSavings(c.pickLocal(), uint64(c.rng.Intn(100)+1))
	case smallbank.Amalgamate:
		a := c.pickLocal()
		err = c.c.Amalgamate(a, c.pickPartner(a))
	}
	return int(t), err
}

// checkpointLogs truncates the worker's NVRAM logs once its write-ahead log
// is half full. The program truncates them only in recovery and failover,
// so a durable run would otherwise fill the log and panic. Between two of
// its client's transactions a worker has none in flight: every logged
// transaction committed, its updates are in the store and its remote locks
// are released, which is what a checkpoint needs.
func (c *sbClient) checkpointLogs() {
	wk := c.e.Worker()
	if wk.WriteAheadLog == nil || wk.WriteAheadLog.BytesUsed() < c.ckptBytes {
		return
	}
	wk.WriteAheadLog.Truncate()
	wk.LockAheadLog.Truncate()
	wk.ChoppingLog.Truncate()
}

// withdrawChecking removes up to amt from one checking account, clamped at
// zero, and tallies what the committed attempt took.
func (c *sbClient) withdrawChecking(acct, amt uint64) error {
	var taken uint64
	err := c.e.Exec(func(t *drtm.Tx) error {
		if err := t.W(smallbank.TableChecking, acct); err != nil {
			return err
		}
		return t.Execute(func(lc *drtm.Local) error {
			v, err := lc.Read(smallbank.TableChecking, acct)
			if err != nil {
				return err
			}
			taken = min(amt, v[0]) // every attempt sets it afresh
			return lc.Write(smallbank.TableChecking, acct, []uint64{v[0] - taken})
		})
	})
	if err == nil {
		c.withdrawn += int64(taken)
	}
	return err
}

// pickLocal returns an account homed on the client's node, hot-skewed.
func (c *sbClient) pickLocal() uint64 {
	return c.pickOn(c.e.Worker().Node.ID)
}

func (c *sbClient) pickOn(node int) uint64 {
	base := uint64(node * c.cfg.AccountsPerNode)
	if c.rng.Float64() < c.cfg.HotProb {
		return base + uint64(c.rng.Intn(c.cfg.HotAccounts)) + 1
	}
	return base + uint64(c.rng.Intn(c.cfg.AccountsPerNode)) + 1
}

// pickPartner returns a second account, remote with probability DistProb
// and otherwise a different local one.
func (c *sbClient) pickPartner(first uint64) uint64 {
	node := c.e.Worker().Node.ID
	if c.rng.Float64() < c.cfg.DistProb {
		return c.pickOn((node + 1 + c.rng.Intn(nodes-1)) % nodes)
	}
	for {
		if p := c.pickLocal(); p != first {
			return p
		}
	}
}

// check: the total balance equals the configured initial total plus the
// clients' own tally of net deposits, and every backup's replica shard,
// with the redo records still queued for it applied, equals its primary.
func (in *sbInst) check() error {
	want := int64(in.cfg.Nodes*in.cfg.AccountsPerNode) * 2 * int64(in.cfg.InitialBalance)
	for _, c := range in.clients {
		want += c.c.NetDeposits - c.withdrawn
	}
	if got := int64(in.w.TotalBalance()); got != want {
		return fmt.Errorf("smallbank: total balance %d, want %d (initial total plus net deposits)", got, want)
	}
	return in.checkReplicas()
}

// checkReplicas compares each partition's primary with its backup's replica
// shard. A backup applies redo records when the sender's ring crosses its
// checkpoint threshold, so the replica may lag by the records still in the
// ring: the check drains the rings and applies the newest queued version of
// each row first, as that checkpoint would, then compares every account.
func (in *sbInst) checkReplicas() error {
	c := in.db.C
	type rowKey struct {
		table int
		key   uint64
	}
	type row struct {
		version uint32
		val     uint64
	}
	for p := 0; p < in.cfg.Nodes; p++ {
		for _, b := range c.Backups(nil, p) {
			queued := map[rowKey]row{}
			for s := 0; s < in.cfg.Nodes; s++ {
				for w := 0; w < workersPerNode; w++ {
					c.RedoSinkAt(b, s, w).Drain(func(rec []uint64) {
						_, ups, ok := nvram.DecodeRedo(rec)
						if !ok {
							return
						}
						for _, u := range ups {
							k := rowKey{u.Table, u.Key}
							if u.Part == p && u.Version > queued[k].version {
								queued[k] = row{u.Version, u.Val[0]}
							}
						}
					})
				}
			}
			for _, table := range []int{smallbank.TableSavings, smallbank.TableChecking} {
				prim := c.Node(p).Unordered(table)
				repl := c.Node(b).Unordered(cluster.ReplicaRegion(p, table))
				arena := repl.Arena()
				base := uint64(p * in.cfg.AccountsPerNode)
				for a := uint64(1); a <= uint64(in.cfg.AccountsPerNode); a++ {
					key := base + a
					pv, ok1 := prim.Get(key)
					off, ok2 := repl.LookupLocal(key)
					if !ok1 || !ok2 {
						return fmt.Errorf("smallbank: account %d table %d missing on primary %d or backup %d", key, table, p, b)
					}
					cur := arena.LoadWord(kvs.IncVerOffset(off))
					if q, ok := queued[rowKey{table, key}]; ok && q.version > kvs.Version(cur) {
						arena.Write(kvs.ValueOffset(off), []uint64{q.val})
						arena.Write(kvs.IncVerOffset(off), []uint64{kvs.PackIncVer(kvs.Incarnation(cur), q.version)})
					}
					if got := arena.LoadWord(kvs.ValueOffset(off)); got != pv[0] {
						return fmt.Errorf("smallbank: replica of account %d table %d on node %d holds %d, primary %d holds %d",
							key, table, b, got, p, pv[0])
					}
				}
			}
		}
	}
	return nil
}
