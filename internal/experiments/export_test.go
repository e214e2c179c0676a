package experiments

// Table3Specs returns the bundled spec each Table 3 cell is a plane
// of, in table order.
func Table3Specs() []string {
	out := make([]string, len(table3))
	for i, e := range table3 {
		out[i] = e.spec
	}
	return out
}
