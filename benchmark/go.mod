module serialgraph/benchmark

go 1.24

require serialgraph v0.0.0

replace serialgraph => ../
