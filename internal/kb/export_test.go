package kb

import "probkb/internal/engine"

// ExampleKB gives the external snapshot tests the paper's Table 1 KB.
var ExampleKB = exampleKB

// FactSetOf returns k's identity set over TΠ.
func FactSetOf(k *KB) *engine.RowSet { return k.factSet }
