package simlocks

// RunContention exposes the contention harness to the external test
// package (all_test.go), which cannot live in package simlocks because it
// iterates the lock registry.
var RunContention = runContention
