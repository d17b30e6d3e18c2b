package sched

// Topology models the NUMA structure of the paper's evaluation machine
// (4 domains). Graph partitions are assigned to domains round-robin —
// the paper allocates equal partition counts per domain — and the
// experiment harness can report per-domain load. Because Go cannot pin
// memory pages, the model's role is bookkeeping: deciding which
// partitions belong together and validating that partition counts are
// multiples of the domain count as the paper requires. No engine
// schedules by it.
type Topology struct {
	Domains int
}

// DefaultTopology mirrors the paper's 4-socket machine.
func DefaultTopology() Topology { return Topology{Domains: 4} }

// DomainOf returns the domain that owns partition p under round-robin
// assignment.
func (t Topology) DomainOf(p int) int {
	if t.Domains <= 0 {
		return 0
	}
	return p % t.Domains
}

// PartitionsFor rounds the requested partition count up to a multiple of
// the domain count, as §III.D prescribes ("we consider only multiples of
// 4 and allocate the same number of partitions on each NUMA domain").
func (t Topology) PartitionsFor(requested int) int {
	if t.Domains <= 1 || requested <= 0 {
		if requested < 1 {
			return 1
		}
		return requested
	}
	r := requested % t.Domains
	if r == 0 {
		return requested
	}
	return requested + t.Domains - r
}

// DomainLoads aggregates per-partition loads into per-domain loads.
func (t Topology) DomainLoads(partLoads []int64) []int64 {
	d := t.Domains
	if d <= 0 {
		d = 1
	}
	out := make([]int64, d)
	for p, l := range partLoads {
		out[t.DomainOf(p)] += l
	}
	return out
}
