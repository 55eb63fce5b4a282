// The benchmark is a module of its own so that building or testing the
// database (`go build ./... && go test ./...` at the repository root) never
// compiles it, and so that it builds from a bare checkout with one command.
// Its import path sits under hrdb/ so it may still reach hrdb/internal/...
module hrdb/bench

go 1.22

require hrdb v0.0.0

replace hrdb => ../
