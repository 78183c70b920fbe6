package table

// AssignBoxed runs AssignRange's memo path alone, for the external tests
// that must see it taken: it reports whether the memo was taken, and when
// it was, gids holds the range's group ids.
func (g *Grouper) AssignBoxed(lo, hi int, gids []int32) bool {
	g.AssignRange(0, 0, nil) // allocates AssignRange's scratch
	return g.assignBoxed(lo, hi, gids)
}
