module streach/bench

go 1.22

require streach v0.0.0

replace streach => ../
