//go:build race

package gateway_test

// The allocation budgets of TestRoutedSubmitAllocBudget and
// TestLeasingSubmitAllocBudget under the race detector, which makes
// sync.Pool drop a random share of what is put back.  Each is the largest
// count seen in 30 runs when it was pinned (go1.24, linux/amd64), plus a
// margin of one allocation for that randomness.
const (
	routedSubmitAllocBudget  = 7
	leasingSubmitAllocBudget = 7
)
