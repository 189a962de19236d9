//go:build race

package serve

// raceEnabled reports a -race build, where the detector slows the load
// driver as much as the server, so timed load tests measure neither.
const raceEnabled = true
