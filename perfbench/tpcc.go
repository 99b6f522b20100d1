package main

import (
	"errors"
	"fmt"
	"math/rand"

	"drtm"
	"drtm/internal/tpcc"
)

// tpcc-mix: the TPC-C standard mix (45/43/4/4/4), one warehouse per worker,
// spec cross-warehouse rates. The paper's headline workload: large local
// transactions in the HTM region over the B+ tree order tables, RDMA only on
// cross-warehouse accesses.

var tpccOps = []string{"new_order", "payment", "order_status", "delivery", "stock_level"}

const (
	tpccNewOrder = iota
	tpccPayment
	tpccOrderStatus
	tpccDelivery
	tpccStockLevel
)

// tpccLastNames is the number of last-name buckets the tpcc package's
// customer index uses (customers c and c+100 share a bucket).
const tpccLastNames = 100

type tpccInst struct {
	db  *drtm.DB
	w   *tpcc.Workload
	cfg tpcc.Config
	// baseNextO is each district's D_NEXT_O_ID when its client was bound;
	// the check compares its advance with the clients' committed
	// new-order counts.
	baseNextO map[uint64]uint64
	clients   []*tpccClient
}

func tpccConfig(sc scale) tpcc.Config {
	cfg := tpcc.DefaultConfig(nodes, workersPerNode)
	cfg.CustomersPerDist = 300
	cfg.Items = 10_000
	cfg.InitialOrders = 30
	// Room for the orders a run inserts. Ordered tables are preallocated,
	// so this sets most of the heap; 3000 per district is about three times
	// what a 10 s run inserts on the reference machine (README.md).
	cfg.ExtraOrdersPerDistrict = 3_000
	if sc == tinyScale {
		cfg.Districts = 2
		cfg.CustomersPerDist = 30
		cfg.Items = 200
		cfg.InitialOrders = 5
		cfg.ExtraOrdersPerDistrict = 2_000
	}
	return cfg
}

func setupTPCC(sc scale, seed int64) (instance, error) {
	cfg := tpccConfig(sc)
	db, err := drtm.Open(drtm.Options{Nodes: nodes, WorkersPerNode: workersPerNode}, cfg.Partitioner())
	if err != nil {
		return nil, err
	}
	w, err := tpcc.Setup(db.RT, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &tpccInst{db: db, w: w, cfg: cfg, baseNextO: map[uint64]uint64{}}, nil
}

func (in *tpccInst) DB() *drtm.DB { return in.db }

func (in *tpccInst) newClient(i int, e *drtm.Executor, seed int64) opClient {
	home := e.Worker().Node.ID*in.cfg.WarehousesPerNode + i%in.cfg.WarehousesPerNode + 1
	c := &tpccClient{in: in, e: e, home: home, rng: rand.New(rand.NewSource(seed)),
		newOrders: make([]int64, in.cfg.Districts+1)}
	for d := 1; d <= in.cfg.Districts; d++ {
		dv, ok := in.db.Get(tpcc.TableDistrict, tpcc.DKey(home, d))
		if !ok {
			panic(fmt.Sprintf("tpcc: district %d/%d missing after setup", home, d))
		}
		in.baseNextO[tpcc.DKey(home, d)] = dv[tpcc.DNextOID]
	}
	in.clients = append(in.clients, c)
	return c
}

// check runs the TPC-C consistency conditions and compares every district's
// D_NEXT_O_ID advance with its client's count of committed new-orders.
func (in *tpccInst) check() error {
	if err := in.w.CheckConsistency(); err != nil {
		return fmt.Errorf("tpcc consistency: %w", err)
	}
	for _, c := range in.clients {
		for d := 1; d <= in.cfg.Districts; d++ {
			k := tpcc.DKey(c.home, d)
			dv, ok := in.db.Get(tpcc.TableDistrict, k)
			if !ok {
				return fmt.Errorf("tpcc: district %d/%d missing", c.home, d)
			}
			if got, want := int64(dv[tpcc.DNextOID]-in.baseNextO[k]), c.newOrders[d]; got != want {
				return fmt.Errorf("tpcc: district %d/%d allocated %d order ids, clients committed %d new-orders",
					c.home, d, got, want)
			}
		}
	}
	return nil
}

type tpccClient struct {
	in        *tpccInst
	e         *drtm.Executor
	home      int
	rng       *rand.Rand
	hSeq      uint64
	oSeq      uint64
	newOrders []int64 // committed new-orders per district of the home warehouse
	lines     []tpcc.OrderLineInput
	seen      map[int]bool
}

func (c *tpccClient) nuRand(a, x, y int) int {
	cc := 42 % (a + 1)
	return ((c.rng.Intn(a+1)|(c.rng.Intn(y-x+1)+x))+cc)%(y-x+1) + x
}

func (c *tpccClient) district() int { return c.rng.Intn(c.in.cfg.Districts) + 1 }
func (c *tpccClient) customer() int { return c.nuRand(1023, 1, c.in.cfg.CustomersPerDist) }
func (c *tpccClient) item() int     { return c.nuRand(8191, 1, c.in.cfg.Items) }

func (c *tpccClient) otherWarehouse() int {
	w := c.rng.Intn(c.in.cfg.Warehouses()-1) + 1
	if w >= c.home {
		w++
	}
	return w
}

func (c *tpccClient) next() (int, error) {
	w := c.in.w
	switch r := c.rng.Intn(100); {
	case r < 45:
		return tpccNewOrder, c.newOrder()
	case r < 88:
		return tpccPayment, c.payment()
	case r < 92:
		_, err := w.OrderStatus(c.e, c.home, c.district(), c.customer())
		return tpccOrderStatus, err
	case r < 96:
		c.oSeq++
		_, err := w.Delivery(c.e, c.home, c.rng.Intn(10)+1, uint64(c.home)<<32|c.oSeq)
		return tpccDelivery, err
	default:
		_, err := w.StockLevel(c.e, c.home, c.district(), uint64(c.rng.Intn(11)+10))
		return tpccStockLevel, err
	}
}

// newOrder draws 5..15 distinct items, each supplied by a remote warehouse
// with CrossNewOrderPct probability; 1% of orders name an unused item and
// roll back (a user abort, which is the spec's outcome, not a failure).
func (c *tpccClient) newOrder() error {
	cfg := c.in.cfg
	n := c.rng.Intn(11) + 5
	c.lines = c.lines[:0]
	if c.seen == nil {
		c.seen = map[int]bool{}
	}
	clear(c.seen)
	for i := 0; i < n; i++ {
		it := c.item()
		for c.seen[it] {
			it = c.item()
		}
		c.seen[it] = true
		supply := c.home
		if c.rng.Intn(100) < cfg.CrossNewOrderPct {
			supply = c.otherWarehouse()
		}
		c.lines = append(c.lines, tpcc.OrderLineInput{ItemID: it, SupplyW: supply, Quantity: c.rng.Intn(10) + 1})
	}
	if c.rng.Intn(100) == 0 {
		c.lines[n-1] = tpcc.OrderLineInput{ItemID: cfg.Items + 1, SupplyW: c.home, Quantity: 1}
	}
	d := c.district()
	_, err := c.in.w.NewOrder(c.e, c.home, d, c.customer(), c.lines)
	if err == nil {
		c.newOrders[d]++
	}
	if errors.Is(err, drtm.ErrUserAbort) {
		return nil
	}
	return err
}

// payment pays a customer of the home district, or with CrossPaymentPct
// probability of a remote warehouse; 60% select the customer by last name.
func (c *tpccClient) payment() error {
	cfg := c.in.cfg
	d := c.district()
	cW, cD := c.home, d
	if c.rng.Intn(100) < cfg.CrossPaymentPct {
		cW, cD = c.otherWarehouse(), c.district()
	}
	cust := c.customer()
	if c.rng.Intn(100) < 60 {
		if id, ok := c.in.w.LookupByLastName(c.e, cW, cD, uint64(c.rng.Intn(tpccLastNames))); ok {
			cust = id
		}
	}
	c.hSeq++
	return c.in.w.Payment(c.e, c.home, d, cW, cD, cust, uint64(c.rng.Intn(500000)+100), c.hSeq)
}
