package main

// pinnedDigests are the simulated-statistics digests of each workload at
// defaultSeed, with the window shape (windowInsts, windowCount) and the
// quick-sweep shape (sweepInsts, ladder) in this package. A change that
// leaves the simulator bit-identical leaves them unchanged; a change to
// the model or to the benchmark's inputs must re-pin them and say why.
//
// stream-replay replays the same windows as repair-heavy, so the two
// digests are equal. quick-sweep's inputs are the fixed quick suite, so its
// digest holds at every seed.
var pinnedDigests = map[string]string{
	"repair-heavy":  "2d71a0ff1b7edd96",
	"memory-bound":  "feed71383ebbc0fb",
	"stream-replay": "2d71a0ff1b7edd96",
	"quick-sweep":   "d0776704a08d04eb",
}
