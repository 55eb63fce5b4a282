//go:build race

package view

// allocSlack is how far apart two equal allocation counts may read: the
// race detector makes sync.Pool drop items at random.
const allocSlack = 2
