//go:build !race

package gateway_test

// The allocation budgets of TestRoutedSubmitAllocBudget,
// TestLeasingSubmitAllocBudget and TestLeasingUploadAllocBudget, as
// measured when they were pinned (go1.24, linux/amd64).
const (
	routedSubmitAllocBudget  = 5
	leasingSubmitAllocBudget = 5
	leasingUploadAllocBudget = 4
)
