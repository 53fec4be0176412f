//go:build !race

package container_test

// Allocation budgets (see alloc_test.go), as measured when they were pinned
// (go1.24, linux/amd64).  A sweep's count varies by about one allocation per
// hundred campaigns, which the child budgets' last digit absorbs; a page's
// is a whole number of allocations over its 64 children (15/64 = 0.234375).
const (
	table1CycleAllocBudget        = 43
	table1IngressCycleAllocBudget = 58
	sweepChildAllocBudget         = 13.32
	scriptSweepChildAllocBudget   = 11.33
	sweepPageAllocBudget          = 0.235
)
