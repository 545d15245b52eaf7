package exec

import "testing"

// PoisonDeadSlots makes every batch start poisoned until the test ends (see
// poisonDead), so a batch operator that reads a slot the liveness pass
// marked dead returns different rows than the row engine. Tests that arm it
// must not run in parallel with tests that do not.
func PoisonDeadSlots(t testing.TB) {
	poisonDead = true
	t.Cleanup(func() { poisonDead = false })
}
