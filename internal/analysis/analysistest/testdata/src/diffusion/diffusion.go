// Package diffusion shares its import-path segment with internal/diffusion:
// the fixture proves the determinism-critical filter reaches the simulators,
// whose pinned RNG streams a wall-clock seed would break.
package diffusion

import "time"

func RunSeed() uint64 {
	return uint64(time.Now().UnixNano()) // want `time\.Now in a determinism-critical package`
}
