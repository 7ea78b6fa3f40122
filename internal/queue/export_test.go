package queue

// TestJob is testJob for the external test package.
var TestJob = testJob
