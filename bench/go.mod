module tailbench/bench

go 1.24

require tailbench v0.0.0

replace tailbench => ../
