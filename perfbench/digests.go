package main

// committedSeed is the workload.Config.Seed of every suite grid.
const committedSeed = 0

// committedDigests are the sha256 digests of metrics.EncodeSummaries for
// each suite workload's grid. TestCommittedDigests recomputes them on the
// reference simulators (Kernel "ref"), which share no executor code with
// the flat kernel the timed grids run.
var committedDigests = map[string]string{
	"suite-align": "0ffc382b147de855229ced42755ce69e5cf5b84c999c611b8a94143e1e31fdb2",
	"suite-sim":   "64bda677d66a6a9f9dfd3f75fa83d1f64cf87499bccb9cd971a8353c35088f2f",
}
