module probkb/benchmark

go 1.22

require probkb v0.0.0

replace probkb => ../
