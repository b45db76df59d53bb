module pregelix/benchmark

go 1.24

require pregelix v0.0.0

replace pregelix => ../
