//go:build !race

package gateway_test

// The allocation budgets of TestRoutedSubmitAllocBudget and
// TestLeasingSubmitAllocBudget, as measured when they were pinned (go1.24,
// linux/amd64).
const (
	routedSubmitAllocBudget  = 5
	leasingSubmitAllocBudget = 5
)
