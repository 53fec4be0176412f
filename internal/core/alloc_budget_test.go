//go:build !race

package core

// The allocation budget of TestJobPageDecodeAllocBudget, per job of a
// 64-job page, as measured when it was pinned (go1.24, linux/amd64):
// encoding/json takes about 20.
const jobPageDecodeAllocBudget = 10.13
