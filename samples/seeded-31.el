10 12
v0
v1
v2
v3
v4
v5
v6
v7
v8
v9
v0 v1
v0 v2
v0 v5
v0 v6
v0 v7
v0 v8
v1 v3
v1 v4
v1 v6
v1 v8
v2 v9
v3 v8
