module adrias/benchmark

go 1.22

require adrias v0.0.0

replace adrias => ../
