package kb

// ExampleKB gives the external snapshot tests the paper's Table 1 KB.
var ExampleKB = exampleKB
