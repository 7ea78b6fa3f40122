module snowboard/bench

go 1.22

require snowboard v0.0.0

replace snowboard => ../
