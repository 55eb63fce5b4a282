//go:build !race

package view

// allocSlack is how far apart two equal allocation counts may read.
const allocSlack = 0
