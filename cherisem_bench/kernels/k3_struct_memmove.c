// @CATEGORY: eval_kernels: memcpy/memmove of capability-bearing structs
// @EXPECT: exit 170
// An array of structs holding pointers is shifted with overlapping
// memmove and copied with memcpy; the moved pointers are then
// dereferenced, so their tags must survive every copy.
#include <stdlib.h>
#include <string.h>
struct rec { long id; int *p; int w[2]; };
int main(void) {
    int vals[16];
    for (int i = 0; i < 16; i++) vals[i] = i * i + 1;
    struct rec a[24];
    struct rec b[24];
    for (int i = 0; i < 24; i++) {
        a[i].id = i;
        a[i].p = &vals[i % 16];
        a[i].w[0] = i;
        a[i].w[1] = 24 - i;
    }
    unsigned long sum = 0;
    for (int r = 0; r < 40; r++) {
        memmove(&a[1], &a[0], 23 * sizeof(struct rec));
        memmove(&a[0], &a[23], sizeof(struct rec));
        memcpy(b, a, sizeof a);
        for (int i = 0; i < 24; i += 3)
            sum += (unsigned long)(*b[i].p + b[i].w[0] + (int)b[i].id);
    }
    return (int)(sum % 251u);
}
