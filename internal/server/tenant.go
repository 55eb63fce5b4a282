package server

import (
	"fmt"
	"sync"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/obs"
)

// DefaultTenant is the namespace served to connections whose HELLO names
// none. It is always backed by the server's main target.
const DefaultTenant = "default"

// TenantLimits bounds one tenant's demand on the shared worker pool. Limits
// feed the same shed path as global admission control, but answer with the
// "quota" code so a client can tell "the server is busy" from "I am over my
// own budget". The zero value is unlimited.
type TenantLimits struct {
	// MaxInflight caps the tenant's concurrently admitted statements
	// (queued + executing). 0 = unlimited.
	MaxInflight int
	// RatePerSec is the sustained statement admission rate, enforced by a
	// token bucket. 0 = unlimited.
	RatePerSec float64
	// Burst is the token bucket depth — how many statements may be
	// admitted back-to-back after an idle period. Defaults to
	// max(1, ceil(RatePerSec)).
	Burst int
}

// TenantConfig declares one named namespace on a server: an independent
// catalog (hql.Target) plus its admission limits. A config named
// DefaultTenant may omit Target to attach limits to the server's main
// target.
type TenantConfig struct {
	Name   string
	Target hql.Target
	Limits TenantLimits
}

// tenantState is the server-side runtime of one namespace: its target, its
// admission bookkeeping, and its labeled metric series. One per tenant per
// Server; connections hold a pointer after resolving their namespace.
type tenantState struct {
	name   string
	target hql.Target
	limits TenantLimits

	mu       sync.Mutex
	inflight int       // admitted (queued + executing) statements
	tokens   float64   // rate-limit token bucket level
	lastFill time.Time // last bucket refill

	// Labeled series on the default registry: every tenant shows up as its
	// own {tenant="..."} time series under the shared metric names.
	mRequests *obs.Counter
	mShed     *obs.Counter
	mInflight *obs.Gauge
	mLatency  *obs.Histogram
}

// newTenantState builds the runtime for one namespace.
func newTenantState(name string, target hql.Target, limits TenantLimits) *tenantState {
	if limits.RatePerSec > 0 && limits.Burst <= 0 {
		limits.Burst = int(limits.RatePerSec)
		if float64(limits.Burst) < limits.RatePerSec {
			limits.Burst++
		}
		if limits.Burst < 1 {
			limits.Burst = 1
		}
	}
	series := obs.Default().With(obs.Label{Key: "tenant", Value: name})
	return &tenantState{
		name:      name,
		target:    target,
		limits:    limits,
		tokens:    float64(limits.Burst),
		lastFill:  time.Now(),
		mRequests: series.Counter("hrdb_tenant_requests_total"),
		mShed:     series.Counter("hrdb_tenant_shed_total"),
		mInflight: series.Gauge("hrdb_tenant_inflight"),
		mLatency:  series.Histogram("hrdb_tenant_request_duration_ns"),
	}
}

// admit claims one admission slot, enforcing the inflight cap and the rate
// limit. On success the caller owes a release() once the statement leaves
// the worker pool. A consumed rate token is never refunded — the rate
// limit meters arrivals, not completions.
func (tn *tenantState) admit() bool {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if tn.limits.MaxInflight > 0 && tn.inflight >= tn.limits.MaxInflight {
		return false
	}
	if tn.limits.RatePerSec > 0 {
		now := time.Now()
		tn.tokens += now.Sub(tn.lastFill).Seconds() * tn.limits.RatePerSec
		if max := float64(tn.limits.Burst); tn.tokens > max {
			tn.tokens = max
		}
		tn.lastFill = now
		if tn.tokens < 1 {
			return false
		}
		tn.tokens--
	}
	tn.inflight++
	tn.mInflight.Inc()
	return true
}

// release returns an admission slot claimed by admit.
func (tn *tenantState) release() {
	tn.mu.Lock()
	tn.inflight--
	tn.mu.Unlock()
	tn.mInflight.Dec()
}

// quotaErr renders the shed message for this tenant.
func (tn *tenantState) quotaErr() error {
	return fmt.Errorf("tenant %q over quota", tn.name)
}

// buildTenants resolves Options.Tenants into the server's namespace table.
// The default namespace always exists over the main target; a TenantConfig
// named DefaultTenant overrides its limits (and may not replace its
// target — the main target is what the replication and drain machinery
// manage).
func buildTenants(target hql.Target, configs []TenantConfig) map[string]*tenantState {
	tenants := map[string]*tenantState{}
	var defaultLimits TenantLimits
	for _, tc := range configs {
		if tc.Name == DefaultTenant || tc.Name == "" {
			defaultLimits = tc.Limits
			continue
		}
		tgt := tc.Target
		if tgt == nil {
			// A declared tenant with no target gets its own empty in-memory
			// catalog: a namespace that exists from the first statement.
			tgt = hql.MemTarget{DB: catalog.New()}
		}
		tenants[tc.Name] = newTenantState(tc.Name, tgt, tc.Limits)
	}
	tenants[DefaultTenant] = newTenantState(DefaultTenant, target, defaultLimits)
	return tenants
}

// resolveTenant maps a requested namespace name ("" = default) to its
// runtime state.
func (s *Server) resolveTenant(name string) (*tenantState, bool) {
	if name == "" {
		name = DefaultTenant
	}
	tn, ok := s.tenants[name]
	return tn, ok
}
