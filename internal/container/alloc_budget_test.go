//go:build !race

package container_test

// Allocation budgets (see alloc_test.go), as measured when they were pinned
// (go1.24, linux/amd64).  A sweep's count varies by about one allocation per
// hundred campaigns, which the child budgets' last digit absorbs.
const (
	table1CycleAllocBudget      = 59
	sweepChildAllocBudget       = 20.32
	scriptSweepChildAllocBudget = 18.33
	sweepPageAllocBudget        = 0.27
)
