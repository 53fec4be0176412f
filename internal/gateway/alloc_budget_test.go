//go:build !race

package gateway_test

// The allocation budget of TestRoutedSubmitAllocBudget, as measured when
// it was pinned (go1.24, linux/amd64).
const routedSubmitAllocBudget = 7
