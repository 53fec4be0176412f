//go:build race

package container_test

// Allocation budgets (see alloc_test.go) under the race detector, which
// makes sync.Pool drop a random share of what is put back, so the counts
// vary from run to run.  Each budget is the largest count seen in 30 runs
// when it was pinned (go1.24, linux/amd64), plus a margin of one or two
// allocations per cycle, campaign or page for that randomness.
const (
	table1CycleAllocBudget        = 53
	table1IngressCycleAllocBudget = 65
	sweepChildAllocBudget         = 14.38
	scriptSweepChildAllocBudget   = 13.18
	sweepPageAllocBudget          = 0.32
)
