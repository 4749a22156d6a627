package stats

import "sync/atomic"

// Tenant-layer counters. Multi-tenant serving gives every RESP command an
// identity dimension; the sink keeps one counter block per registered
// tenant (indexed by registration order, the tenant registry's index) so
// the admin surface can show per-tenant commands, payload bytes, quota
// rejections, and capability denials without touching the registry's own
// locks. Same contract as the rest of the sink: nil-safe and atomic.

// TenantCounters is one tenant's serving activity.
type TenantCounters struct {
	commands atomic.Uint64
	bytes    atomic.Uint64
	quota    atomic.Uint64
	denials  atomic.Uint64
}

// tenantCounters is the sink's tenant block.
type tenantCounters struct {
	table atomic.Pointer[[]TenantCounters]
}

// InstallTenants grows the per-tenant counter table to hold at least n
// tenants, preserving existing totals — tenants register incrementally and
// a fresh table would zero history. Safe on nil.
func (s *Sink) InstallTenants(n int) {
	if s == nil {
		return
	}
	old := s.tenants.table.Load()
	if old != nil && len(*old) >= n {
		return
	}
	table := make([]TenantCounters, n)
	if old != nil {
		for i := range *old {
			table[i].commands.Store((*old)[i].commands.Load())
			table[i].bytes.Store((*old)[i].bytes.Load())
			table[i].quota.Store((*old)[i].quota.Load())
			table[i].denials.Store((*old)[i].denials.Load())
		}
	}
	s.tenants.table.Store(&table)
}

func (s *Sink) tenant(i int) *TenantCounters {
	if s == nil {
		return nil
	}
	table := s.tenants.table.Load()
	if table == nil || i < 0 || i >= len(*table) {
		return nil
	}
	return &(*table)[i]
}

// TenantCommand records one admitted command of n payload bytes for the
// tenant at index i. Safe on nil.
func (s *Sink) TenantCommand(i int, n uint64) {
	if t := s.tenant(i); t != nil {
		t.commands.Add(1)
		t.bytes.Add(n)
	}
}

// TenantQuotaRejected records one quota rejection at admission. Safe on nil.
func (s *Sink) TenantQuotaRejected(i int) {
	if t := s.tenant(i); t != nil {
		t.quota.Add(1)
	}
}

// TenantDenied records one capability denial (a cross-view address the
// tenant held no capability for). Safe on nil.
func (s *Sink) TenantDenied(i int) {
	if t := s.tenant(i); t != nil {
		t.denials.Add(1)
	}
}

// TenantDeniedTotal returns the running capability-denial count summed over
// tenants, safe to poll mid-run.
func (s *Sink) TenantDeniedTotal() uint64 {
	if s == nil {
		return 0
	}
	table := s.tenants.table.Load()
	if table == nil {
		return 0
	}
	var total uint64
	for i := range *table {
		total += (*table)[i].denials.Load()
	}
	return total
}
