// @CATEGORY: eval_kernels: pointer chasing through heap nodes
// @EXPECT: exit 206
// A singly linked list of heap nodes, linked in a strided order and
// walked repeatedly: every step is a capability load through a
// struct member.
#include <stdlib.h>
struct node { int value; struct node *next; };
int main(void) {
    struct node *nodes[64];
    for (int i = 0; i < 64; i++) {
        nodes[i] = malloc(sizeof(struct node));
        nodes[i]->value = i * 7 + 3;
        nodes[i]->next = 0;
    }
    int cur = 0;
    for (int i = 1; i < 64; i++) {
        int nxt = (cur + 37) % 64;
        nodes[cur]->next = nodes[nxt];
        cur = nxt;
    }
    unsigned long sum = 0;
    for (int r = 0; r < 15; r++)
        for (struct node *n = nodes[0]; n; n = n->next)
            sum += (unsigned long)(n->value ^ r);
    for (int i = 0; i < 64; i++)
        free(nodes[i]);
    return (int)(sum % 251u);
}
