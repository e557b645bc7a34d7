package main

import (
	"fmt"

	"repro/api"
)

// validateSpec refuses a memory budget that has nowhere to spill: the
// budget only means something with a spill directory (-spill-dir, or
// implicitly <data-dir>/<name>/spill on a durable server).
func validateSpec(name string, sp api.Spec, durable, spill bool) error {
	if sp.MemoryBudgetBytes < 0 {
		return fmt.Errorf("tracker %q: memory_budget_bytes must be >= 0, got %d", name, sp.MemoryBudgetBytes)
	}
	if sp.MemoryBudgetBytes > 0 && !durable && !spill {
		return fmt.Errorf(
			"tracker %q: memory_budget_bytes=%d needs a spill directory: pass -spill-dir (or -data-dir, which spills under the tracker's data directory)",
			name, sp.MemoryBudgetBytes)
	}
	return nil
}
