// Sharded table budgets for multi-tenant residency. The CLOCK-capped
// head-counter and path tables and the flush-bounded fragment cache are
// per-System, so tenants cannot corrupt each other's state by construction —
// but they can starve each other of memory. A ShardSet carves one global
// table budget into per-tenant shards: every tenant's Systems run under
// capacities that shrink as more tenants become active, so the sum of all
// resident table space stays under the budget no matter how many tenants
// pile on. Eviction counts reported back after each run become the
// eviction-pressure signal the server's degradation ladder (and operators,
// via telemetry) watch: sustained pressure means the per-tenant shards are
// too small for the working sets, i.e. the service is memory-overloaded
// even if CPU is not.
package dynamo

import (
	"sync"

	"netpath/internal/telemetry"
)

// TableBudget is the global capacity split across tenants: head-counter
// slots, path-interner slots, and fragment-cache entries.
type TableBudget struct {
	HeadCounters int
	Paths        int
	Fragments    int
}

// DefaultTableBudget matches four tenants at DefaultConfig capacities.
func DefaultTableBudget() TableBudget {
	return TableBudget{HeadCounters: 4 << 16, Paths: 4 << 18, Fragments: 4 * 8192}
}

// Shard floors: a tenant's shard never shrinks below these, so a flood of
// tenants degrades everyone gradually instead of zeroing the tables (the
// budget is then a soft bound, which the pressure telemetry makes visible).
const (
	minShardHeads = 64
	minShardPaths = 256
	minShardFrags = 16
)

// ShardAlloc is one tenant's current table capacities, plus its handle on
// the shared tier-2 compile service (nil when tier 2 is disabled).
type ShardAlloc struct {
	MaxHeadCounters int
	MaxPaths        int
	MaxFragments    int

	// Tier2 is the set-wide background compiler; Tenant keys the tenant's
	// jobs in its round-robin queue, so one tenant's hot loop cannot
	// monopolize the compile budget.
	Tier2  *Tier2Compiler
	Tenant string
}

// Apply installs the shard capacities into a run configuration.
func (a ShardAlloc) Apply(cfg *Config) {
	cfg.MaxHeadCounters = a.MaxHeadCounters
	cfg.MaxPaths = a.MaxPaths
	cfg.MaxFragments = a.MaxFragments
	cfg.Tier2 = a.Tier2
	cfg.Tier2Tenant = a.Tenant
}

// shardStats accumulates one tenant's pressure history.
type shardStats struct {
	runs      int64
	evictions int64
}

// ShardSet divides a TableBudget among active tenants. Shared mode hands
// every tenant the full budget (tables are still per-System, so this is the
// "shared" configuration of the per-tenant-vs-shared tradeoff: maximum
// capacity per guest, no cross-tenant isolation of memory pressure).
type ShardSet struct {
	mu      sync.Mutex
	budget  TableBudget
	shared  bool
	tenants map[string]*shardStats
	tier2   *Tier2Compiler

	runs      int64
	evictions int64
}

// Shard-pressure telemetry (see internal/telemetry).
var (
	telTableEvictions = telemetry.NewCounter("dynamo_table_evictions_total",
		"CLOCK evictions across all tenants' head/path table shards")
	telTableTenants = telemetry.NewGauge("dynamo_table_tenants",
		"tenants currently holding a table shard")
	telTablePressure = telemetry.NewGauge("dynamo_table_pressure_milli",
		"evictions per run x1000 across all shards (lifetime)")
)

// NewShardSet creates a shard set over budget. A zero-valued field of
// budget falls back to the default. shared disables division: every tenant
// sees the full budget.
func NewShardSet(budget TableBudget, shared bool) *ShardSet {
	def := DefaultTableBudget()
	if budget.HeadCounters <= 0 {
		budget.HeadCounters = def.HeadCounters
	}
	if budget.Paths <= 0 {
		budget.Paths = def.Paths
	}
	if budget.Fragments <= 0 {
		budget.Fragments = def.Fragments
	}
	return &ShardSet{budget: budget, shared: shared, tenants: make(map[string]*shardStats)}
}

// Alloc returns tenant's current shard capacities, registering the tenant
// if it is new. Capacities are the budget divided by the active tenant
// count (floored; see the minShard constants), so an Alloc can shrink what
// an earlier tenant got — by design: allocations are read per run, so the
// fleet converges to the fair split within one run per tenant.
func (ss *ShardSet) Alloc(tenant string) ShardAlloc {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.tenants[tenant]; !ok {
		ss.tenants[tenant] = &shardStats{}
		telTableTenants.Set(int64(len(ss.tenants)))
	}
	n := len(ss.tenants)
	if ss.shared || n < 1 {
		n = 1
	}
	return ShardAlloc{
		MaxHeadCounters: maxInt(minShardHeads, ss.budget.HeadCounters/n),
		MaxPaths:        maxInt(minShardPaths, ss.budget.Paths/n),
		MaxFragments:    maxInt(minShardFrags, ss.budget.Fragments/n),
		Tier2:           ss.tier2,
		Tenant:          tenant,
	}
}

// SetTier2 attaches a background superblock compiler to the set: every
// subsequent Alloc hands it out with the tenant's key, so all tenants share
// the compile workers under round-robin fairness. Call before serving; the
// caller owns the compiler's lifecycle (Close after the Systems drain).
func (ss *ShardSet) SetTier2(c *Tier2Compiler) {
	ss.mu.Lock()
	ss.tier2 = c
	ss.mu.Unlock()
}

// Release reports a finished run's table behaviour back to the set: CLOCK
// evictions from the run feed the pressure signal. NET and Static intern no
// paths (PathEvictions reads 0), so only their head evictions count.
func (ss *ShardSet) Release(tenant string, r Result) {
	ev := r.HeadEvictions + r.PathEvictions
	ss.mu.Lock()
	if st, ok := ss.tenants[tenant]; ok {
		st.runs++
		st.evictions += ev
	}
	ss.runs++
	ss.evictions += ev
	runs, evs := ss.runs, ss.evictions
	ss.mu.Unlock()
	if ev > 0 {
		telTableEvictions.Add(ev)
	}
	if runs > 0 {
		telTablePressure.Set(evs * 1000 / runs)
	}
}

// Retire forgets an idle tenant, returning its shard capacity to the pool.
func (ss *ShardSet) Retire(tenant string) {
	ss.mu.Lock()
	delete(ss.tenants, tenant)
	telTableTenants.Set(int64(len(ss.tenants)))
	ss.mu.Unlock()
}

// Tenants returns the number of tenants holding shards.
func (ss *ShardSet) Tenants() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.tenants)
}

// Evictions returns the lifetime eviction count across all shards.
func (ss *ShardSet) Evictions() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.evictions
}

// PressureMilli returns lifetime evictions per run, x1000 (0 when no run
// has completed). Sustained growth means the per-tenant shards no longer
// hold the working sets — the memory-overload input to degradation.
func (ss *ShardSet) PressureMilli() int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.runs == 0 {
		return 0
	}
	return ss.evictions * 1000 / ss.runs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
